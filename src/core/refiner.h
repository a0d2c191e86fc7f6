// NEAT Phase 3 — flow cluster refinement (paper §III-C).
//
// Flow clusters whose representative routes end near each other (in *network*
// distance) are merged into final trajectory clusters, revealing groups of
// frequent routes between hotspot areas. The distance between two flows is
// the paper's modified Hausdorff metric over the route endpoints (Definition
// 11, Eq. 5), evaluated with undirected shortest-path distances. The merge
// is a deterministic adaptation of DBSCAN: flows are data units, there is no
// minimum cardinality for resulting clusters, and each round starts from the
// unprocessed flow with the longest representative route.
//
// Two admissible prunes may skip a pair's shortest-path work entirely:
//  * The Euclidean lower bound (ELB, §III-C.3) — segment lengths never
//    undercut straight-line distances, so d_E(a, b) <= d_N(a, b).
//  * The landmark (ALT) bound — triangle inequality over precomputed
//    landmark distance tables (roadnet::LandmarkOracle); tighter than ELB
//    whenever shortest paths bend, e.g. on grid networks. The same tables
//    steer the surviving searches as A* potentials.
// Neither prune ever changes a merge decision, only the work performed.
//
// Queries that survive pruning run on a configurable DistanceEngine ladder
// (Dijkstra, ALT-steered A* when landmarks are on, Contraction Hierarchies);
// every rung returns the same distances, so clusters are bit-identical
// across engines.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/flow_cluster.h"
#include "roadnet/ch_engine.h"
#include "roadnet/road_network.h"

namespace neat {

/// How the distance between two flow clusters is measured.
enum class FlowDistanceMode {
  /// The paper's first prototype (§III-C.1): modified Hausdorff over the
  /// two ends of each representative route (four shortest paths per pair).
  kEndpoints,
  /// Full-route refinement the paper leaves for later prototypes: modified
  /// Hausdorff over *all* junctions of both representative routes — two
  /// routes are close only when every part of each runs near the other.
  /// One multi-target Dijkstra per junction.
  kFullRoute,
};

/// Which engine answers the shortest-path queries that survive pruning.
/// Every rung returns identical distances — the ladder only trades
/// preprocessing for per-query work, never merge decisions. Landmark (ALT)
/// steering is RefineConfig::use_landmarks on top of kDijkstra.
enum class DistanceEngine {
  /// Bounded Dijkstra (NodeDistanceOracle), no preprocessing; A* over the
  /// landmark tables when use_landmarks is set.
  kDijkstra,
  /// Contraction Hierarchies: one-time node-contraction preprocessing, then
  /// bidirectional upward searches that settle orders of magnitude fewer
  /// nodes per query (roadnet::ChEngine).
  kCh,
  /// CH plus bucket-based many-to-many tables (roadnet::CHTableEngine): the
  /// endpoint-mode refiner batches each chunk's surviving pairs into one
  /// table() fill — O(endpoints) upward searches instead of O(pairs) label
  /// merges. Distances, and therefore clusters, stay bit-identical to every
  /// other rung; full-route mode falls back to per-pair CH queries.
  kChTable,
};

/// Parameters of Phase 3.
struct RefineConfig {
  double epsilon{3000.0};  ///< DBSCAN ε in metres of network distance.
  FlowDistanceMode distance_mode{FlowDistanceMode::kEndpoints};
  bool use_elb{true};      ///< Euclidean-lower-bound pruning on/off.
  /// Landmark (ALT) acceleration: a second admissible prune from
  /// triangle-inequality bounds over precomputed landmark tables, plus A*
  /// potentials for the searches that survive pruning. Merge decisions are
  /// unchanged; only the Dijkstra work shrinks. Costs num_landmarks + 1 full
  /// Dijkstra runs to build (lazily, on first refine()).
  bool use_landmarks{false};
  int num_landmarks{8};    ///< Landmark count when use_landmarks is set.
  /// Shortest-path engine for the queries pruning cannot skip. kCh and
  /// kChTable build a roadnet::ChEngine lazily on first refine() (or accept
  /// a shared one via Refiner::set_ch_engine).
  DistanceEngine distance_engine{DistanceEngine::kDijkstra};
  /// Stop each Dijkstra once the search frontier passes ε. Every clustering
  /// decision is identical (DBSCAN only asks whether d <= ε; a leg that
  /// bounds out is > ε, and Formula 5's max/min structure preserves the
  /// comparison), only the work shrinks. Disable to mirror the paper's
  /// opt-NEAT-Dijkstra variant, which computes full shortest paths.
  bool bound_searches_at_epsilon{true};
  /// DBSCAN minPts over flows. 1 (the default) makes every flow core, which
  /// matches the paper's "no minimum cardinality" modification.
  int min_pts{1};
  /// Worker threads for the pairwise-distance evaluation (see
  /// Refiner::refine). The output is bit-identical for any value; 0/1 =
  /// serial.
  unsigned threads{1};
};

/// A final trajectory cluster: a set of merged flow clusters.
struct FinalCluster {
  /// Indices into the Phase 2 flow vector, ascending.
  std::vector<std::size_t> flows;
  /// Sum of the members' representative-route lengths (metres).
  double total_route_length{0.0};
  /// Distinct participating trajectories, ascending.
  std::vector<TrajectoryId> participants;

  [[nodiscard]] int cardinality() const { return static_cast<int>(participants.size()); }
};

/// Result of Phase 3 with the instrumentation the paper's Figure 7 reports.
struct Phase3Output {
  std::vector<FinalCluster> clusters;
  std::size_t sp_computations{0};   ///< Shortest-path (Dijkstra/A*) runs issued.
  std::size_t elb_pruned_pairs{0};  ///< Flow pairs eliminated by ELB alone.
  std::size_t lm_pruned_pairs{0};   ///< Pairs eliminated by the landmark bound (after ELB).
  std::size_t pairs_evaluated{0};   ///< Flow pairs whose network distance was computed.
  std::size_t settled_nodes{0};     ///< Nodes settled across all searches (work proxy).
};

/// The ε-graph of a flow set: the flow similarity graph of El Mahrsi &
/// Rossi's graph-based trajectory clustering, thresholded at ε. Row i lists
/// the other flows whose distance to flow i is <= ε, ascending. Entries are
/// flow serial numbers: flow index i has serial `first + i`. A caller that
/// drops a prefix of its flows (a sliding window) keeps every surviving edge
/// by calling drop_front(), which bumps `first` instead of renumbering.
struct EpsilonGraph {
  std::size_t first{0};                        ///< Serial number of flow index 0.
  std::vector<std::vector<std::size_t>> rows;  ///< Neighbour serials per flow.

  /// Removes the first `count` flows: their rows and every edge to them.
  void drop_front(std::size_t count);
};

/// The modified Hausdorff distance of Definition 11 given the four pairwise
/// endpoint distances d(a_i, b_j). Exposed for tests.
[[nodiscard]] double hausdorff_from_parts(double d11, double d12, double d21, double d22);

/// Merges flow clusters into final trajectory clusters.
class Refiner {
 public:
  /// Keeps a reference to the network; do not outlive it. Throws
  /// neat::PreconditionError on non-positive ε, minPts < 1 or
  /// num_landmarks < 1 (with use_landmarks). Construction is cheap; the
  /// landmark tables are built lazily on first use.
  Refiner(const roadnet::RoadNetwork& net, RefineConfig config);

  /// Runs the refinement over the given flows: extend_epsilon_graph() over
  /// every pair, then cluster_epsilon_graph(). Deterministic: clusters and
  /// counters are bit-identical at any thread count, except settled_nodes
  /// under the CH engines, whose per-worker label memos make it depend on
  /// which worker claims a chunk.
  [[nodiscard]] Phase3Output refine(const std::vector<FlowCluster>& flows) const;

  /// Phase 3 step (a): adds flows [first_new, flows.size()) to `graph`, whose
  /// rows must cover exactly flows [0, first_new). Evaluates every pair (i, j)
  /// with i < j and j >= first_new — in column order, j ascending then i
  /// ascending, cut into fixed 64-pair chunks that min(RefineConfig::threads,
  /// chunks) workers claim with private search workspaces — and links the
  /// pairs with d <= ε in both rows, keeping every row ascending. Returns the
  /// work counters of these pairs only (no clusters).
  Phase3Output extend_epsilon_graph(const std::vector<FlowCluster>& flows,
                                    std::size_t first_new, EpsilonGraph& graph) const;

  /// Phase 3 step (b): the deterministic DBSCAN merge over a finished
  /// ε-graph of `flows` (one row per flow).
  [[nodiscard]] std::vector<FinalCluster> cluster_epsilon_graph(
      const std::vector<FlowCluster>& flows, const EpsilonGraph& graph) const;

  /// Network (modified Hausdorff) distance between two flow clusters under
  /// the configured mode, computed with a fresh oracle. For tests/tools.
  [[nodiscard]] double flow_distance(const FlowCluster& a, const FlowCluster& b) const;

  /// Smallest Euclidean distance among the four endpoint pairs — the ELB
  /// pruning key of the endpoint mode. Exposed for tests.
  [[nodiscard]] double min_euclidean_endpoint_distance(const FlowCluster& a,
                                                       const FlowCluster& b) const;

  /// Euclidean full-route Hausdorff over the junction sets — the ELB
  /// pruning key of the full-route mode (a lower bound of the network
  /// value, since d_E <= d_N junction-wise). Exposed for tests.
  [[nodiscard]] double euclidean_route_hausdorff(const FlowCluster& a,
                                                 const FlowCluster& b) const;

  /// Landmark lower bound on the endpoint Hausdorff distance (Formula 5 over
  /// the four per-pair landmark bounds — monotonicity keeps it admissible).
  /// Exposed for tests.
  [[nodiscard]] double landmark_hausdorff_bound(const FlowCluster& a, const FlowCluster& b,
                                                const roadnet::LandmarkOracle& lm) const;

  /// Pre-seeds the landmark tables (e.g. to share one oracle across many
  /// refiners or batches). Ignored unless the config enables landmarks.
  void set_landmarks(std::shared_ptr<const roadnet::LandmarkOracle> landmarks);

  /// The landmark oracle used by this refiner: nullptr when disabled,
  /// otherwise the seeded or lazily built instance. Thread safe.
  [[nodiscard]] const roadnet::LandmarkOracle* landmark_oracle() const;

  /// Pre-seeds the contraction hierarchy (e.g. to amortize one build across
  /// refiners or batches). Ignored unless distance_engine is kCh/kChTable;
  /// the engine must be undirected over the same network.
  void set_ch_engine(std::shared_ptr<const roadnet::ChEngine> ch);

  /// The hierarchy used by this refiner: nullptr unless distance_engine is
  /// kCh/kChTable, otherwise the seeded or lazily built instance. Thread safe.
  [[nodiscard]] const roadnet::ChEngine* ch_engine() const;

  [[nodiscard]] const RefineConfig& config() const { return config_; }
  [[nodiscard]] const roadnet::RoadNetwork& network() const { return net_; }

 private:
  /// Per-thread search workspace (defined in refiner.cpp): the landmark
  /// tables, a Dijkstra/ALT oracle and, under kCh/kChTable, a query head
  /// (and for kChTable a table engine) over the shared hierarchy.
  struct DistanceContext;

  /// Builds a workspace for the configured engine, triggering the
  /// thread-safe, once-only lazy accelerator builds.
  [[nodiscard]] DistanceContext make_context() const;

  /// Distance of one candidate pair exactly as refine() uses it: +inf when
  /// the ELB or landmark prune fires, otherwise the configured network
  /// Hausdorff. Work counters accumulate into `counters`.
  double refine_pair_distance(const FlowCluster& a, const FlowCluster& b, DistanceContext& ctx,
                              Phase3Output& counters) const;

  /// Evaluates the pairs [begin, end) of the column-order enumeration (pair
  /// p = j * (j - 1) / 2 + i for i < j) and stores whether each is within ε
  /// in `within[p - begin]`. Under kChTable (endpoint mode) the range's
  /// surviving pairs are answered by one table() fill.
  void fill_pair_distances(const std::vector<FlowCluster>& flows, std::size_t begin,
                           std::size_t end, DistanceContext& ctx, std::span<char> within,
                           Phase3Output& counters) const;

  /// Applies the admissible ELB and landmark prunes to one pair, bumping the
  /// matching counter. True = pruned (the pair's distance is > ε without any
  /// shortest-path work).
  bool pair_pruned(const FlowCluster& a, const FlowCluster& b,
                   const roadnet::LandmarkOracle* lm, Phase3Output& counters) const;
  double network_hausdorff(const FlowCluster& a, const FlowCluster& b,
                           DistanceContext& ctx) const;
  double network_route_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                 DistanceContext& ctx) const;
  double elb_key(const FlowCluster& a, const FlowCluster& b) const;

  const roadnet::RoadNetwork& net_;
  RefineConfig config_;
  mutable std::mutex accel_mu_;  ///< Guards the lazily built accelerators.
  mutable std::shared_ptr<const roadnet::LandmarkOracle> landmarks_;
  mutable std::shared_ptr<const roadnet::ChEngine> ch_;
};

}  // namespace neat
