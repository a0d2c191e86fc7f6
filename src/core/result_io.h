// Persistence for clustering results.
//
// The NEAT server (paper §II-C) answers client requests for "trajectory
// clustering results for a particular road network" — which means computed
// flow/final clusters must be storable and reloadable without re-running
// the pipeline. The snapshot format is CSV rows, one concern per row kind:
//
//   flow,<idx>,<route_length>
//   flowroute,<idx>,<seq>,<sid>              (route, in order)
//   flowjunction,<idx>,<seq>,<node>          (route.size() + 1 rows)
//   flowpart,<idx>,<trid>                    (participants, ascending)
//   final,<idx>,<total_route_length>
//   finalflow,<idx>,<flow_idx>               (member flows, ascending)
//
// Indices are dense and in order: a row's <idx> or <seq> names an existing
// flow, final cluster or route/junction position, or the next one, as
// save_snapshot writes them. Segment and node ids lie in [0,
// roadnet::kMaxNetworkId] and lengths are finite. The loader rejects
// anything else with a neat::ParseError naming the line, so a file can
// never make it allocate more than its rows.
//
// Base clusters and t-fragments are intentionally not persisted: they are
// cheap to recompute and bulky to store; the snapshot is the *servable*
// output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/flow_cluster.h"
#include "core/refiner.h"

namespace neat {

/// The servable part of a clustering result.
struct ClusteringSnapshot {
  std::vector<FlowCluster> flows;         ///< members are not persisted.
  std::vector<FinalCluster> final_clusters;
};

/// Writes a snapshot to a stream.
void save_snapshot(const ClusteringSnapshot& snapshot, std::ostream& out);

/// Writes a snapshot to a file; throws neat::Error on failure to open.
void save_snapshot(const ClusteringSnapshot& snapshot, const std::string& path);

/// Reads a snapshot; throws neat::ParseError, naming the line, on malformed
/// data.
[[nodiscard]] ClusteringSnapshot load_snapshot(std::istream& in);

/// Reads a snapshot from a file; throws neat::Error / neat::ParseError.
[[nodiscard]] ClusteringSnapshot load_snapshot(const std::string& path);

}  // namespace neat
