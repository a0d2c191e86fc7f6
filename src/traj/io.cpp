#include "traj/io.h"

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/string_util.h"
#include "roadnet/io.h"

namespace neat::traj {

namespace {

Location parse_location(const std::vector<std::string_view>& row) {
  Location loc;
  loc.sid = SegmentId(roadnet::parse_network_id(row[2], "segment id"));
  loc.pos = {parse_finite(row[3], "x"), parse_finite(row[4], "y")};
  loc.t = parse_finite(row[5], "t");
  loc.junction_point = parse_int(row[6]) != 0;
  return loc;
}

}  // namespace

void save_dataset(const TrajectoryDataset& data, std::ostream& out) {
  CsvWriter writer(out);
  for (const Trajectory& tr : data) {
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const Location& loc = tr.point(i);
      writer.write_row({std::to_string(tr.id().value()), std::to_string(i),
                        std::to_string(loc.sid.value()), format_fixed(loc.pos.x, 3),
                        format_fixed(loc.pos.y, 3), format_fixed(loc.t, 3),
                        loc.junction_point ? "1" : "0"});
    }
  }
}

void save_dataset(const TrajectoryDataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error(str_cat("cannot open '", path, "' for writing"));
  save_dataset(data, out);
}

void for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn) {
  Trajectory current;
  bool has_current = false;
  std::size_t prev_size = 0;  // reserve hint: trajectories of one dataset are alike
  for_each_csv_row(in, [&](const std::vector<std::string_view>& row) {
    if (row.size() != 7) throw ParseError("location row needs 7 fields");
    const TrajectoryId trid(parse_int(row[0]));
    const Location loc = parse_location(row);
    if (!has_current || current.id() != trid) {
      if (has_current) {
        prev_size = current.size();
        fn(std::move(current));
      }
      current = Trajectory(trid);
      current.reserve(prev_size);
      has_current = true;
    }
    try {
      current.append(loc);
    } catch (const PreconditionError& e) {
      throw ParseError(e.what());
    }
  });
  if (has_current) fn(std::move(current));
}

TrajectoryDataset load_dataset(std::istream& in) {
  TrajectoryDataset data;
  for_each_trajectory(in, [&data](Trajectory&& tr) { data.add(std::move(tr)); });
  return data;
}

TrajectoryDataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(str_cat("cannot open '", path, "' for reading"));
  return load_dataset(in);
}

}  // namespace neat::traj
