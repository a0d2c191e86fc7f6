#include "core/result_io.h"

#include <fstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/string_util.h"
#include "core/netflow.h"
#include "roadnet/io.h"

namespace neat {

void save_snapshot(const ClusteringSnapshot& snapshot, std::ostream& out) {
  CsvWriter writer(out);
  for (std::size_t f = 0; f < snapshot.flows.size(); ++f) {
    const FlowCluster& flow = snapshot.flows[f];
    writer.write_row({"flow", std::to_string(f), format_fixed(flow.route_length, 6)});
    for (std::size_t i = 0; i < flow.route.size(); ++i) {
      writer.write_row({"flowroute", std::to_string(f), std::to_string(i),
                        std::to_string(flow.route[i].value())});
    }
    for (std::size_t i = 0; i < flow.junctions.size(); ++i) {
      writer.write_row({"flowjunction", std::to_string(f), std::to_string(i),
                        std::to_string(flow.junctions[i].value())});
    }
    for (const TrajectoryId trid : flow.participants) {
      writer.write_row({"flowpart", std::to_string(f), std::to_string(trid.value())});
    }
  }
  for (std::size_t c = 0; c < snapshot.final_clusters.size(); ++c) {
    const FinalCluster& fc = snapshot.final_clusters[c];
    writer.write_row({"final", std::to_string(c), format_fixed(fc.total_route_length, 6)});
    for (const std::size_t f : fc.flows) {
      writer.write_row({"finalflow", std::to_string(c), std::to_string(f)});
    }
  }
}

void save_snapshot(const ClusteringSnapshot& snapshot, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error(str_cat("cannot open '", path, "' for writing"));
  save_snapshot(snapshot, out);
}

namespace {

/// The element a row's index names: an existing one or the next, the order
/// save_snapshot writes them in. Memory so grows with the rows read, never
/// with a number in the file.
template <class T>
T& existing_or_next(std::vector<T>& items, std::string_view field, const char* what) {
  const std::int64_t idx = parse_int(field);
  if (idx < 0 || idx > static_cast<std::int64_t>(items.size())) {
    throw ParseError(str_cat(what, " ", idx, " is outside [0, ", items.size(), "]"));
  }
  const auto i = static_cast<std::size_t>(idx);
  if (i == items.size()) items.emplace_back();
  return items[i];
}

}  // namespace

ClusteringSnapshot load_snapshot(std::istream& in) {
  ClusteringSnapshot snap;
  for_each_csv_row(in, [&](const std::vector<std::string_view>& row) {
    const std::string_view kind = row[0];
    const auto need = [&row](std::size_t n) {
      if (row.size() != n) throw ParseError(str_cat("expected ", n, " fields, got ", row.size()));
    };
    if (kind == "flow") {
      need(3);
      existing_or_next(snap.flows, row[1], "flow index").route_length =
          parse_finite(row[2], "route length");
    } else if (kind == "flowroute") {
      need(4);
      FlowCluster& f = existing_or_next(snap.flows, row[1], "flow index");
      existing_or_next(f.route, row[2], "route index") =
          SegmentId(roadnet::parse_network_id(row[3], "segment id"));
    } else if (kind == "flowjunction") {
      need(4);
      FlowCluster& f = existing_or_next(snap.flows, row[1], "flow index");
      existing_or_next(f.junctions, row[2], "junction index") =
          NodeId(roadnet::parse_network_id(row[3], "node id"));
    } else if (kind == "flowpart") {
      need(3);
      existing_or_next(snap.flows, row[1], "flow index")
          .participants.push_back(TrajectoryId(parse_int(row[2])));
    } else if (kind == "final") {
      need(3);
      existing_or_next(snap.final_clusters, row[1], "final-cluster index").total_route_length =
          parse_finite(row[2], "total route length");
    } else if (kind == "finalflow") {
      need(3);
      existing_or_next(snap.final_clusters, row[1], "final-cluster index")
          .flows.push_back(static_cast<std::size_t>(parse_int(row[2])));
    } else {
      throw ParseError(str_cat("unknown row kind '", kind, "'"));
    }
  });

  // Structural validation: every flow needs one junction more than route
  // segments, and final clusters must reference existing flows.
  for (std::size_t f = 0; f < snap.flows.size(); ++f) {
    const FlowCluster& flow = snap.flows[f];
    if (flow.junctions.size() != flow.route.size() + 1) {
      throw ParseError(str_cat("snapshot: flow ", f, " has ", flow.route.size(),
                               " route segments but ", flow.junctions.size(), " junctions"));
    }
  }
  for (std::size_t c = 0; c < snap.final_clusters.size(); ++c) {
    FinalCluster& fc = snap.final_clusters[c];
    for (const std::size_t f : fc.flows) {
      if (f >= snap.flows.size()) {
        throw ParseError(str_cat("snapshot: final cluster ", c,
                                 " references missing flow ", f));
      }
      fc.participants = merge_participants(fc.participants, snap.flows[f].participants);
    }
  }
  return snap;
}

ClusteringSnapshot load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(str_cat("cannot open '", path, "' for reading"));
  return load_snapshot(in);
}

}  // namespace neat
