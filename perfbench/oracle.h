// Checks made apart from the program. The road network is parsed from its
// CSV by the benchmark itself, shortest paths come from the benchmark's own
// Dijkstra, and columnar files are read with the benchmark's own reader of
// the documented layout; nothing here calls the library's algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {

/// The road network as the benchmark reads it from `node,...` and
/// `segment,...` CSV rows.
struct Graph {
  struct Segment {
    int a{0};
    int b{0};
    double length{0.0};
    bool bidirectional{true};
  };
  std::vector<double> x, y;
  std::vector<Segment> segments;
  /// Per node: (segment id, neighbour) pairs, every segment in both directions.
  std::vector<std::vector<std::pair<int, int>>> incident;

  static Graph load_csv(const std::string& path);
  [[nodiscard]] std::size_t node_count() const { return x.size(); }
};

/// Dijkstra over Graph with reusable buffers. `directed` honours one-way
/// segments (traversable a -> b only); otherwise every segment is two-way.
/// Searches stop once the frontier passes `bound`.
class Dijkstra {
 public:
  explicit Dijkstra(const Graph& g);
  void run(int source, bool directed, double bound);
  /// Distance to `node` from the last run's source, +inf when unreached.
  [[nodiscard]] double dist(int node) const;
  /// Nodes settled by the last run with their distances.
  [[nodiscard]] const std::vector<std::pair<int, double>>& reached() const { return reached_; }

 private:
  const Graph& g_;
  std::vector<double> dist_;
  std::vector<std::pair<int, double>> reached_;
};

/// Bounded undirected distances from flow endpoints, memoised per source so
/// a run that checks many snapshots over recurring endpoints searches once.
class EndpointDistances {
 public:
  EndpointDistances(const Graph& g, double bound) : dijkstra_(g), bound_(bound) {}
  /// Undirected network distance, +inf beyond the bound.
  double get(int from, int to);

 private:
  Dijkstra dijkstra_;
  double bound_;
  std::unordered_map<int, std::unordered_map<int, double>> from_;
};

/// One flow cluster as a check sees it (parsed from the CLI's flows CSV or
/// copied from a served snapshot).
struct FlowView {
  std::vector<int> route;      ///< Segment ids in route order.
  std::vector<int> junctions;  ///< route.size() + 1 node ids.
  double route_length{0.0};
  int cardinality{0};
  int final_cluster{-1};
};

/// Checks each route is a chain of adjacent segments whose junctions and
/// length match the network, each cardinality is at least `min_card`, and
/// the final clusters are the connected components of the graph whose edges
/// are the flow pairs with modified endpoint Hausdorff distance <= epsilon
/// (minPts 1 makes every flow a core point). Pairs within rounding distance
/// of epsilon count against neither answer. Mismatches go to `out`.
void check_flows(const Graph& g, const std::vector<FlowView>& flows, double epsilon,
                 double min_card, EndpointDistances& dist, Outcome& out);

/// Flows and the report lines of one neat_cli run.
struct CliOutput {
  std::vector<FlowView> flows;
  std::size_t fragments{0}, base_clusters{0}, flow_count{0}, final_clusters{0};
  double min_card{0.0};
  int dense_segment{-1};
  std::size_t dense_density{0}, dense_cardinality{0};
};
/// Parses the stdout report (and the flows CSV when `flows_csv` is not
/// empty). Returns false with `error` set on malformed output.
bool parse_cli_output(const std::string& report, const std::string& flows_csv, CliOutput& out,
                      std::string& error);

/// Per-segment Phase 1 expectation of a corridor-walk columnar file: every
/// maximal run of one segment id in a trajectory is one t-fragment.
struct RunCounts {
  std::vector<std::size_t> density;      ///< Runs per segment.
  std::vector<std::size_t> cardinality;  ///< Distinct trajectories per segment.
  std::size_t runs{0};
  std::size_t segments_used{0};
};
/// Reads the `.neatcol` layout directly (header, index and seg columns).
RunCounts count_segment_runs(const std::string& path, std::size_t segment_count);
/// Checks a base-mode report against the run counts.
void check_base_clusters(const CliOutput& cli, const RunCounts& runs, Outcome& out);

}  // namespace perfbench
