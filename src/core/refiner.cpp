#include "core/refiner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <optional>

#include "common/error.h"
#include "common/string_util.h"
#include "core/netflow.h"
#include "core/workers.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "roadnet/ch_table.h"
#include "roadnet/landmark_oracle.h"
#include "roadnet/shortest_path.h"

namespace neat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Pairs per fill_pair_distances() chunk, the unit workers claim. Fixed, so
/// the chunk boundaries — and with them the kChTable batching and every
/// deterministic counter — are identical at any thread count. Large enough
/// to amortize the claim atomic and the per-chunk table fill, small enough
/// that an unlucky worker stuck with expensive pairs cannot stall the others
/// at the end of the matrix.
constexpr std::size_t kPairChunk = 64;

/// Adds one Phase-3 run's work counters to the global metric registry —
/// one bulk update so the per-pair hot loop never touches shared atomics.
void add_phase3_metrics(const Phase3Output& out, std::size_t total_pairs,
                        bool landmarks_enabled) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("neat_core_pairs_total").add(total_pairs);
  reg.counter("neat_core_pairs_evaluated_total").add(out.pairs_evaluated);
  reg.counter("neat_core_elb_pruned_pairs_total").add(out.elb_pruned_pairs);
  reg.counter("neat_core_lm_pruned_pairs_total").add(out.lm_pruned_pairs);
  reg.counter("neat_core_sp_computations_total").add(out.sp_computations);
  reg.counter("neat_core_sp_settled_nodes_total").add(out.settled_nodes);
  if (landmarks_enabled) {
    // Landmark-bound hit rate: checks are the pairs that survived ELB and
    // reached the triangle-inequality test, hits the pairs it eliminated.
    reg.counter("neat_core_lm_bound_checks_total").add(total_pairs - out.elb_pruned_pairs);
    reg.counter("neat_core_lm_bound_hits_total").add(out.lm_pruned_pairs);
  }
  reg.counter("neat_core_final_clusters_total").add(out.clusters.size());
}

}  // namespace

struct Refiner::DistanceContext {
  DistanceContext(const roadnet::RoadNetwork& net, const roadnet::LandmarkOracle* landmarks)
      : oracle(net), lm(landmarks) {}

  roadnet::NodeDistanceOracle oracle;
  const roadnet::LandmarkOracle* lm;
  std::optional<roadnet::ChEngine::Query> ch;
  std::optional<roadnet::CHTableEngine> table;
  // Batched-table scratch of fill_pair_distances, reused across chunks.
  // Kept beside the engines so the spans handed to table() are per-thread
  // and provably disjoint from the shared condensed matrix.
  std::vector<NodeId> table_sources;
  std::vector<NodeId> table_targets;
  std::vector<double> table_cells;

  [[nodiscard]] std::size_t computations() const {
    return oracle.computations() + (ch ? ch->computations() : 0) +
           (table ? table->computations() : 0);
  }
  [[nodiscard]] std::size_t settled_nodes() const {
    return oracle.settled_nodes() + (ch ? ch->settled_nodes() : 0) +
           (table ? table->settled_nodes() : 0);
  }
};

double hausdorff_from_parts(double d11, double d12, double d21, double d22) {
  // Eq. 5: max over each endpoint of one route of its distance to the
  // closest endpoint of the other route, symmetrized.
  const double fwd = std::max(std::min(d11, d12), std::min(d21, d22));
  const double bwd = std::max(std::min(d11, d21), std::min(d12, d22));
  return std::max(fwd, bwd);
}

Refiner::Refiner(const roadnet::RoadNetwork& net, RefineConfig config)
    : net_(net), config_(config) {
  NEAT_EXPECT(config_.epsilon > 0.0, "RefineConfig: epsilon must be positive");
  NEAT_EXPECT(config_.min_pts >= 1, "RefineConfig: min_pts must be at least 1");
  NEAT_EXPECT(!config_.use_landmarks || config_.num_landmarks >= 1,
              "RefineConfig: num_landmarks must be at least 1 when landmarks are enabled");
}

void Refiner::set_landmarks(std::shared_ptr<const roadnet::LandmarkOracle> landmarks) {
  const std::lock_guard<std::mutex> lock(accel_mu_);
  landmarks_ = std::move(landmarks);
}

const roadnet::LandmarkOracle* Refiner::landmark_oracle() const {
  if (!config_.use_landmarks) return nullptr;
  const std::lock_guard<std::mutex> lock(accel_mu_);
  if (!landmarks_) {
    landmarks_ =
        std::make_shared<const roadnet::LandmarkOracle>(net_, config_.num_landmarks);
  }
  return landmarks_.get();
}

void Refiner::set_ch_engine(std::shared_ptr<const roadnet::ChEngine> ch) {
  if (ch) {
    NEAT_EXPECT(!ch->options().directed && &ch->network() == &net_,
                "Refiner: needs an undirected ChEngine over the same network");
  }
  const std::lock_guard<std::mutex> lock(accel_mu_);
  ch_ = std::move(ch);
}

const roadnet::ChEngine* Refiner::ch_engine() const {
  if (config_.distance_engine != DistanceEngine::kCh &&
      config_.distance_engine != DistanceEngine::kChTable) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(accel_mu_);
  if (!ch_) {
    // Undirected, metres — the same metric NodeDistanceOracle answers in.
    ch_ = std::make_shared<const roadnet::ChEngine>(net_);
  }
  return ch_.get();
}

Refiner::DistanceContext Refiner::make_context() const {
  DistanceContext ctx(net_, landmark_oracle());
  if (const roadnet::ChEngine* ch = ch_engine()) {
    ctx.ch.emplace(*ch);
    if (config_.distance_engine == DistanceEngine::kChTable) ctx.table.emplace(*ch);
  }
  return ctx;
}

double Refiner::min_euclidean_endpoint_distance(const FlowCluster& a,
                                                const FlowCluster& b) const {
  const Point a1 = net_.node(a.start_junction()).pos;
  const Point a2 = net_.node(a.end_junction()).pos;
  const Point b1 = net_.node(b.start_junction()).pos;
  const Point b2 = net_.node(b.end_junction()).pos;
  return std::min(std::min(distance(a1, b1), distance(a1, b2)),
                  std::min(distance(a2, b1), distance(a2, b2)));
}

double Refiner::landmark_hausdorff_bound(const FlowCluster& a, const FlowCluster& b,
                                         const roadnet::LandmarkOracle& lm) const {
  const NodeId a1 = a.start_junction();
  const NodeId a2 = a.end_junction();
  const NodeId b1 = b.start_junction();
  const NodeId b2 = b.end_junction();
  // hausdorff_from_parts is monotone in each argument, so feeding it
  // per-pair lower bounds yields a lower bound of the true Hausdorff value —
  // strictly sharper than the min-of-four key ELB uses.
  return hausdorff_from_parts(lm.lower_bound(a1, b1), lm.lower_bound(a1, b2),
                              lm.lower_bound(a2, b1), lm.lower_bound(a2, b2));
}

double Refiner::network_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                  DistanceContext& ctx) const {
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const std::array<NodeId, 2> b_ends{b.start_junction(), b.end_junction()};
  std::array<double, 2> row1{};
  std::array<double, 2> row2{};
  // One batched search per endpoint of `a` settles both endpoints of `b`:
  // two searches per pair instead of four. Every engine returns the same
  // distances; only the settled work differs.
  if (ctx.ch) {
    ctx.ch->distances(a.start_junction(), b_ends, row1, bound);
  } else {
    ctx.oracle.distances(a.start_junction(), b_ends, row1, bound, ctx.lm);
  }
  if (config_.bound_searches_at_epsilon &&
      std::min(row1[0], row1[1]) > config_.epsilon) {
    // Formula 5's forward term is already > ε, so the pair cannot merge;
    // both legs bounded out, so the exact value is +inf either way. Skip
    // the second search.
    return kInf;
  }
  if (ctx.ch) {
    ctx.ch->distances(a.end_junction(), b_ends, row2, bound);
  } else {
    ctx.oracle.distances(a.end_junction(), b_ends, row2, bound, ctx.lm);
  }
  return hausdorff_from_parts(row1[0], row1[1], row2[0], row2[1]);
}

double Refiner::euclidean_route_hausdorff(const FlowCluster& a, const FlowCluster& b) const {
  const auto directed = [&](const std::vector<NodeId>& from, const std::vector<NodeId>& to) {
    double worst = 0.0;
    for (const NodeId u : from) {
      const Point up = net_.node(u).pos;
      double best = kInf;
      for (const NodeId v : to) {
        best = std::min(best, distance(up, net_.node(v).pos));
      }
      worst = std::max(worst, best);
    }
    return worst;
  };
  return std::max(directed(a.junctions, b.junctions), directed(b.junctions, a.junctions));
}

double Refiner::network_route_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                        DistanceContext& ctx) const {
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const auto directed = [&](const std::vector<NodeId>& from, const std::vector<NodeId>& to) {
    double worst = 0.0;
    for (const NodeId u : from) {
      // One multi-target query: min_v d_N(u, v) over the other route's
      // junctions (the oracle settles the first target; CH buckets them).
      worst = std::max(worst, ctx.ch ? ctx.ch->distance_to_any(u, to, bound)
                                     : ctx.oracle.distance_to_any(u, to, bound, ctx.lm));
      if (worst > config_.epsilon) break;  // the max can only grow
    }
    return worst;
  };
  return std::max(directed(a.junctions, b.junctions), directed(b.junctions, a.junctions));
}

double Refiner::elb_key(const FlowCluster& a, const FlowCluster& b) const {
  return config_.distance_mode == FlowDistanceMode::kEndpoints
             ? min_euclidean_endpoint_distance(a, b)
             : euclidean_route_hausdorff(a, b);
}

double Refiner::flow_distance(const FlowCluster& a, const FlowCluster& b) const {
  DistanceContext ctx = make_context();
  return config_.distance_mode == FlowDistanceMode::kEndpoints
             ? network_hausdorff(a, b, ctx)
             : network_route_hausdorff(a, b, ctx);
}

bool Refiner::pair_pruned(const FlowCluster& a, const FlowCluster& b,
                          const roadnet::LandmarkOracle* lm,
                          Phase3Output& counters) const {
  if (config_.use_elb && elb_key(a, b) > config_.epsilon) {
    // ELB: the true network distance can only be larger; prune without any
    // shortest-path computation.
    ++counters.elb_pruned_pairs;
    return true;
  }
  if (lm != nullptr && config_.distance_mode == FlowDistanceMode::kEndpoints &&
      landmark_hausdorff_bound(a, b, *lm) > config_.epsilon) {
    // Landmark (ALT) bound: admissible like ELB but follows network
    // geodesics, so it catches pairs whose straight-line distance is small
    // while every road route is long.
    ++counters.lm_pruned_pairs;
    return true;
  }
  return false;
}

double Refiner::refine_pair_distance(const FlowCluster& a, const FlowCluster& b,
                                     DistanceContext& ctx, Phase3Output& counters) const {
  if (pair_pruned(a, b, ctx.lm, counters)) return kInf;
  const std::size_t before = ctx.computations();
  const std::size_t before_settled = ctx.settled_nodes();
  const double d = config_.distance_mode == FlowDistanceMode::kEndpoints
                       ? network_hausdorff(a, b, ctx)
                       : network_route_hausdorff(a, b, ctx);
  counters.sp_computations += ctx.computations() - before;
  counters.settled_nodes += ctx.settled_nodes() - before_settled;
  ++counters.pairs_evaluated;
  return d;
}

void Refiner::fill_pair_distances(const std::vector<FlowCluster>& flows, std::size_t begin,
                                  std::size_t end, DistanceContext& ctx,
                                  std::span<double> pair_dist,
                                  Phase3Output& counters) const {
  const std::size_t n = flows.size();
  // Recover (i, j) from the condensed index p = i*n - i*(i+1)/2 + (j-i-1) by
  // walking rows; the range is contiguous, so the walk is amortized O(1) per
  // pair.
  const auto row_end = [&](std::size_t i) { return (i + 1) * n - (i + 1) * (i + 2) / 2; };
  std::size_t i = 0;
  while (row_end(i) <= begin) ++i;
  std::size_t j = i + 1 + (begin - (i * n - i * (i + 1) / 2));
  const auto advance = [&] {
    if (++j == n) {
      ++i;
      j = i + 1;
    }
  };

  if (!ctx.table || config_.distance_mode != FlowDistanceMode::kEndpoints) {
    for (std::size_t p = begin; p < end; ++p) {
      pair_dist[p] = refine_pair_distance(flows[i], flows[j], ctx, counters);
      advance();
    }
    return;
  }

  // Batched many-to-many path (kChTable, endpoint mode): apply the
  // admissible prunes per pair, then answer every surviving pair's four
  // endpoint legs from ONE table() fill over the chunk's endpoints (the
  // table engine deduplicates shared junctions internally). Values are
  // bit-identical to the per-pair path: the table resolves each cell by the
  // same unpack-and-re-sum as ChEngine::Query, and under an ε bound a leg
  // that bounds out is kInfDistance on both paths, so the assembled
  // Hausdorff — and every merge decision downstream — cannot differ.
  struct Survivor {
    std::size_t p;
    std::size_t a;
    std::size_t b;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(end - begin);
  for (std::size_t p = begin; p < end; ++p) {
    if (pair_pruned(flows[i], flows[j], ctx.lm, counters)) {
      pair_dist[p] = kInf;
    } else {
      survivors.push_back(Survivor{p, i, j});
    }
    advance();
  }
  if (survivors.empty()) return;

  ctx.table_sources.clear();
  ctx.table_targets.clear();
  for (const Survivor& s : survivors) {
    ctx.table_sources.push_back(flows[s.a].start_junction());
    ctx.table_sources.push_back(flows[s.a].end_junction());
    ctx.table_targets.push_back(flows[s.b].start_junction());
    ctx.table_targets.push_back(flows[s.b].end_junction());
  }
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const std::size_t before = ctx.computations();
  const std::size_t before_settled = ctx.settled_nodes();
  ctx.table_cells.assign(ctx.table_sources.size() * ctx.table_targets.size(), kInf);
  ctx.table->table(ctx.table_sources, ctx.table_targets, ctx.table_cells, bound);
  counters.sp_computations += ctx.computations() - before;
  counters.settled_nodes += ctx.settled_nodes() - before_settled;
  const std::size_t stride = ctx.table_targets.size();
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    const double* row1 = ctx.table_cells.data() + (2 * k) * stride;
    const double* row2 = ctx.table_cells.data() + (2 * k + 1) * stride;
    pair_dist[survivors[k].p] = hausdorff_from_parts(row1[2 * k], row1[2 * k + 1],
                                                     row2[2 * k], row2[2 * k + 1]);
    ++counters.pairs_evaluated;
  }
}

namespace {

/// The deterministic DBSCAN merge over a finished condensed pair-distance
/// matrix: the entry for pair (i, j), i < j, lives at index
/// i * n - i * (i + 1) / 2 + (j - i - 1).
std::vector<FinalCluster> cluster_from_pair_distances(const std::vector<FlowCluster>& flows,
                                                      std::span<const double> pair_distances,
                                                      const RefineConfig& config) {
  const std::size_t n = flows.size();

  const auto pair_distance = [&](std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    return pair_distances[i * n - i * (i + 1) / 2 + (j - i - 1)];
  };

  // Deterministic processing order: longest representative route first
  // (paper modification 4), ties on the original flow index.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (flows[x].route_length != flows[y].route_length) {
      return flows[x].route_length > flows[y].route_length;
    }
    return x < y;
  });

  // ε-neighborhood of flow i (includes i itself), ascending indices.
  const auto region_query = [&](std::size_t i) {
    std::vector<std::size_t> region;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || pair_distance(i, j) <= config.epsilon) region.push_back(j);
    }
    return region;
  };

  // DBSCAN over flows.
  constexpr std::size_t kUnclassified = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kNoise = kUnclassified - 1;
  std::vector<std::size_t> label(n, kUnclassified);
  std::vector<std::vector<std::size_t>> groups;

  for (const std::size_t seed : order) {
    if (label[seed] != kUnclassified) continue;
    const std::vector<std::size_t> region = region_query(seed);
    if (region.size() < static_cast<std::size_t>(config.min_pts)) {
      label[seed] = kNoise;
      continue;
    }
    const std::size_t cluster_id = groups.size();
    groups.emplace_back();
    label[seed] = cluster_id;
    groups[cluster_id].push_back(seed);
    std::deque<std::size_t> frontier(region.begin(), region.end());
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      if (label[cur] == kNoise) {  // border point
        label[cur] = cluster_id;
        groups[cluster_id].push_back(cur);
        continue;
      }
      if (label[cur] != kUnclassified) continue;
      label[cur] = cluster_id;
      groups[cluster_id].push_back(cur);
      const std::vector<std::size_t> sub_region = region_query(cur);
      if (sub_region.size() >= static_cast<std::size_t>(config.min_pts)) {
        for (const std::size_t nb : sub_region) {
          if (label[nb] == kUnclassified || label[nb] == kNoise) frontier.push_back(nb);
        }
      }
    }
  }

  // NEAT partitions all kept flows: residual noise flows (possible only when
  // min_pts > 1) become singleton clusters, in processing order.
  for (const std::size_t i : order) {
    if (label[i] == kNoise || label[i] == kUnclassified) {
      label[i] = groups.size();
      groups.push_back({i});
    }
  }

  std::vector<FinalCluster> clusters;
  for (std::vector<std::size_t>& members : groups) {
    std::sort(members.begin(), members.end());
    FinalCluster fc;
    fc.flows = std::move(members);
    for (const std::size_t fi : fc.flows) {
      fc.total_route_length += flows[fi].route_length;
      fc.participants = merge_participants(fc.participants, flows[fi].participants);
    }
    clusters.push_back(std::move(fc));
  }
  return clusters;
}

}  // namespace

Phase3Output Refiner::refine(const std::vector<FlowCluster>& flows) const {
  const std::size_t n = flows.size();
  if (n == 0) return {};
  const std::size_t total_pairs = n * (n - 1) / 2;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, config_.threads), std::max<std::size_t>(1, total_pairs)));
  obs::ScopedSpan span("phase3.refine");
  span.arg("flows", static_cast<std::uint64_t>(n));
  span.arg("threads", static_cast<std::uint64_t>(workers));

  // Build the shared accelerators (landmark tables, contraction hierarchy)
  // on the calling thread; the workers only read them.
  static_cast<void>(landmark_oracle());
  static_cast<void>(ch_engine());

  std::vector<double> pair_dist(total_pairs);
  std::vector<Phase3Output> counters(workers);
  Phase3Output out;
  {
    obs::ScopedSpan pairs_span("phase3.pair_distances");
    std::atomic<std::size_t> next{0};
    detail::run_workers(workers, [&](unsigned w) {
      if (workers > 1) obs::Tracer::global().set_thread_name(str_cat("refine-worker-", w));
      // One span per worker: the trace shows every worker's lifetime side by
      // side, with its share of the prune/search work as args.
      obs::ScopedSpan worker_span("phase3.worker");
      worker_span.arg("worker", static_cast<std::uint64_t>(w));
      DistanceContext ctx = make_context();
      // Stack-local counters avoid false sharing between workers' slots of
      // the shared vector; stored once at the end.
      Phase3Output local;
      std::size_t claimed = 0;
      for (;;) {
        const std::size_t begin = next.fetch_add(kPairChunk, std::memory_order_relaxed);
        if (begin >= total_pairs) break;
        const std::size_t end = std::min(begin + kPairChunk, total_pairs);
        claimed += end - begin;
        // Chunks never overlap, so concurrent writes into pair_dist are
        // disjoint.
        fill_pair_distances(flows, begin, end, ctx, pair_dist, local);
      }
      worker_span.arg("pairs_claimed", static_cast<std::uint64_t>(claimed));
      worker_span.arg("pairs_evaluated", static_cast<std::uint64_t>(local.pairs_evaluated));
      worker_span.arg("elb_pruned", static_cast<std::uint64_t>(local.elb_pruned_pairs));
      worker_span.arg("lm_pruned", static_cast<std::uint64_t>(local.lm_pruned_pairs));
      worker_span.arg("sp_computations", static_cast<std::uint64_t>(local.sp_computations));
      counters[w] = std::move(local);
    });
    // Counters are order-independent sums, so the totals do not depend on
    // how chunks were interleaved — except settled_nodes under kCh/kChTable,
    // where each worker memoizes hub labels.
    for (const Phase3Output& c : counters) {
      out.sp_computations += c.sp_computations;
      out.elb_pruned_pairs += c.elb_pruned_pairs;
      out.lm_pruned_pairs += c.lm_pruned_pairs;
      out.pairs_evaluated += c.pairs_evaluated;
      out.settled_nodes += c.settled_nodes;
    }
    pairs_span.arg("pairs", static_cast<std::uint64_t>(total_pairs));
    pairs_span.arg("elb_pruned", static_cast<std::uint64_t>(out.elb_pruned_pairs));
    pairs_span.arg("lm_pruned", static_cast<std::uint64_t>(out.lm_pruned_pairs));
    pairs_span.arg("sp_computations", static_cast<std::uint64_t>(out.sp_computations));
  }

  obs::ScopedSpan merge_span("phase3.cluster");
  out.clusters = cluster_from_pair_distances(flows, pair_dist, config_);
  add_phase3_metrics(out, total_pairs, config_.use_landmarks);
  span.arg("final_clusters", static_cast<std::uint64_t>(out.clusters.size()));
  return out;
}

}  // namespace neat
