#include "traj/io.h"

#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/string_util.h"

namespace neat::traj {

namespace {

/// Splits one raw CSV line into exactly 7 unquoted fields without
/// allocating. Returns false when the line is blank or does not have 7
/// fields (the caller reports the line number).
bool split_row7(std::string_view line, std::array<std::string_view, 7>& fields) {
  std::size_t n = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    const std::string_view field = comma == std::string_view::npos
                                       ? line.substr(start)
                                       : line.substr(start, comma - start);
    if (n == 7) return false;
    fields[n++] = field;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return n == 7;
}

double parse_finite(std::string_view field, const char* name) {
  const double value = parse_double(field);
  if (!std::isfinite(value)) {
    throw ParseError(str_cat(name, " must be finite, got '", trim(field), "'"));
  }
  return value;
}

Location parse_location(const std::array<std::string_view, 7>& row) {
  Location loc;
  loc.sid = SegmentId(static_cast<std::int32_t>(parse_int(row[2])));
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
  std::string line;
  std::array<std::string_view, 7> row;
  std::vector<std::string> quoted_row;  // slow-path scratch
  Trajectory current;
  bool has_current = false;
  std::size_t prev_size = 0;  // reserve hint: trajectories of one dataset are alike
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string_view view = line;
    if (trim(view).empty()) continue;
    if (view.find('"') != std::string_view::npos) {
      // Quoted fields are legal CSV but never produced by save_dataset;
      // parse this row through the full RFC-4180 reader.
      std::istringstream row_in{line};
      CsvReader reader(row_in);
      if (!reader.read_row(quoted_row) || quoted_row.size() != 7) {
        throw ParseError(str_cat("line ", line_no, ": location row needs 7 fields"));
      }
      for (std::size_t i = 0; i < 7; ++i) row[i] = quoted_row[i];
    } else if (!split_row7(view, row)) {
      throw ParseError(str_cat("line ", line_no, ": location row needs 7 fields"));
    }
    TrajectoryId trid;
    Location loc;
    try {
      trid = TrajectoryId(parse_int(row[0]));
      loc = parse_location(row);
    } catch (const ParseError& e) {
      throw ParseError(str_cat("line ", line_no, ": ", e.what()));
    }
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
      throw ParseError(str_cat("line ", line_no, ": ", e.what()));
    }
  }
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
