// Tests for online/incremental NEAT clustering over trajectory batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "common/error.h"
#include "core/incremental.h"
#include "obs/registry.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

// Splits a dataset into `parts` round-robin batches.
std::vector<traj::TrajectoryDataset> split_batches(const traj::TrajectoryDataset& data,
                                                   std::size_t parts) {
  std::vector<traj::TrajectoryDataset> out(parts);
  for (std::size_t i = 0; i < data.size(); ++i) {
    traj::Trajectory copy = data[i];
    out[i % parts].add(std::move(copy));
  }
  return out;
}

TEST(Incremental, AccumulatesFlowsAcrossBatches) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 4);
  const auto batches = split_batches(data, 3);

  Config cfg;
  cfg.refine.epsilon = 500.0;
  IncrementalClusterer inc(net, cfg);
  std::size_t prev_flows = 0;
  for (const auto& batch : batches) {
    const auto& clusters = inc.add_batch(batch);
    EXPECT_GE(inc.flows().size(), prev_flows);
    prev_flows = inc.flows().size();
    // Every final cluster references valid accumulated flows.
    for (const FinalCluster& c : clusters) {
      for (const std::size_t fi : c.flows) EXPECT_LT(fi, inc.flows().size());
    }
  }
  EXPECT_EQ(inc.batches_processed(), 3u);
  EXPECT_FALSE(inc.flows().empty());
  EXPECT_FALSE(inc.clusters().empty());
}

TEST(Incremental, ClustersPartitionAccumulatedFlows) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(40, 8);
  const auto batches = split_batches(data, 2);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalClusterer inc(net, cfg);
  for (const auto& batch : batches) inc.add_batch(batch);

  std::vector<std::size_t> seen;
  for (const FinalCluster& c : inc.clusters()) {
    for (const std::size_t fi : c.flows) seen.push_back(fi);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> want(inc.flows().size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(seen, want);
}

TEST(Incremental, RejectsDuplicateTrajectoryIdsAcrossBatches) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset batch1;
  batch1.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1), NodeId(2)}));
  traj::TrajectoryDataset batch2;
  batch2.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1)}));

  Config cfg;
  IncrementalClusterer inc(net, cfg);
  inc.add_batch(batch1);
  EXPECT_THROW(inc.add_batch(batch2), PreconditionError);
}

TEST(Incremental, SingleBatchMatchesFlowCountOfBatchRun) {
  // With one batch, incremental flows equal a flow-NEAT run on that batch.
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(30, 5);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalClusterer inc(net, cfg);
  inc.add_batch(data);

  Config flow_cfg = cfg;
  flow_cfg.mode = Mode::kFlow;
  const Result batch_run = NeatClusterer(net, flow_cfg).run(data);
  ASSERT_EQ(inc.flows().size(), batch_run.flow_clusters.size());
  for (std::size_t i = 0; i < inc.flows().size(); ++i) {
    EXPECT_EQ(inc.flows()[i].route, batch_run.flow_clusters[i].route);
  }
}

TEST(IncrementalWindow, EvictsFlowsOutsideWindow) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 2;
  IncrementalClusterer windowed(net, cfg, opts);
  IncrementalClusterer unbounded(net, cfg);

  for (int batch = 0; batch < 5; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(25, 100 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged_a;
    traj::TrajectoryDataset tagged_b;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const auto id = TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i));
      tagged_a.add(traj::Trajectory(id, raw[i].points()));
      tagged_b.add(traj::Trajectory(id, raw[i].points()));
    }
    windowed.add_batch(tagged_a);
    unbounded.add_batch(tagged_b);
  }
  // The window holds at most the flows of the last two batches.
  EXPECT_LT(windowed.flows().size(), unbounded.flows().size());
  // Final clusters still partition the windowed flow set.
  std::vector<std::size_t> seen;
  for (const FinalCluster& c : windowed.clusters()) {
    seen.insert(seen.end(), c.flows.begin(), c.flows.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> want(windowed.flows().size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(seen, want);
}

TEST(IncrementalWindow, EvictedBatchesVanishFromRefinedResult) {
  // Flows of batches that slid out of the window must disappear from the
  // *refined* result too: no final cluster may keep referencing an evicted
  // batch's trajectories.
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 2;
  IncrementalClusterer inc(net, cfg, opts);

  constexpr int kBatches = 5;
  for (int batch = 0; batch < kBatches; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(25, 700 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      // Ids encode the batch: batch b owns [b*1000, b*1000 + 999].
      tagged.add(traj::Trajectory(TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i)),
                                  raw[i].points()));
    }
    const std::vector<FinalCluster>& refined = inc.add_batch(tagged);

    // Only the last `window_batches` batches may contribute participants.
    const int oldest_kept = std::max(0, batch - static_cast<int>(opts.window_batches) + 1);
    for (const FlowCluster& f : inc.flows()) {
      for (const TrajectoryId trid : f.participants) {
        EXPECT_GE(trid.value() / 1000, oldest_kept)
            << "flow kept a participant of evicted batch " << trid.value() / 1000
            << " after batch " << batch;
      }
    }
    for (const FinalCluster& c : refined) {
      for (const TrajectoryId trid : c.participants) {
        EXPECT_GE(trid.value() / 1000, oldest_kept)
            << "refined cluster kept a participant of evicted batch "
            << trid.value() / 1000 << " after batch " << batch;
      }
    }
    // And the window is not trivially empty: the current batch contributes.
    bool current_batch_present = false;
    for (const FlowCluster& f : inc.flows()) {
      for (const TrajectoryId trid : f.participants) {
        if (trid.value() / 1000 == batch) current_batch_present = true;
      }
    }
    EXPECT_TRUE(current_batch_present) << "after batch " << batch;
  }
}

TEST(IncrementalWindow, WindowOfOneTracksOnlyLatestBatch) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 1;
  IncrementalClusterer inc(net, cfg, opts);

  std::size_t last_batch_flows = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(20, 300 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      tagged.add(traj::Trajectory(TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i)),
                                  raw[i].points()));
    }
    // Flows of this batch alone, for comparison.
    Config flow_cfg = cfg;
    flow_cfg.mode = Mode::kFlow;
    last_batch_flows = NeatClusterer(net, flow_cfg).run(tagged).flow_clusters.size();
    inc.add_batch(tagged);
  }
  EXPECT_EQ(inc.flows().size(), last_batch_flows);
}

// --- Incremental Phase 3 over the kept ε-graph --------------------------

// `count` batches of `per_batch` simulated trajectories; batch b owns the
// ids [b * 1000, b * 1000 + 999].
std::vector<traj::TrajectoryDataset> tagged_batches(const roadnet::RoadNetwork& net,
                                                    int count, std::size_t per_batch,
                                                    std::uint64_t seed) {
  const sim::MobilitySimulator simulator(net, sim::default_config(net, 2, 3));
  std::vector<traj::TrajectoryDataset> out;
  for (int b = 0; b < count; ++b) {
    const traj::TrajectoryDataset raw =
        simulator.generate(per_batch, seed + static_cast<std::uint64_t>(b));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      tagged.add(traj::Trajectory(TrajectoryId(b * 1000 + static_cast<std::int64_t>(i)),
                                  raw[i].points()));
    }
    out.push_back(std::move(tagged));
  }
  return out;
}

// Bit-identity of the incremental clusters with a from-scratch refine.
void expect_same_clusters(const std::vector<FinalCluster>& got,
                          const std::vector<FinalCluster>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].flows, want[c].flows) << what << ", cluster " << c;
    EXPECT_EQ(got[c].participants, want[c].participants) << what << ", cluster " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[c].total_route_length),
              std::bit_cast<std::uint64_t>(want[c].total_route_length))
        << what << ", cluster " << c;
  }
}

struct EngineCase {
  DistanceEngine engine;
  bool landmarks;
  unsigned threads;
};

std::string case_name(const EngineCase& c) {
  const char* engines[] = {"dijkstra", "ch", "ch_table"};
  return std::string(engines[static_cast<int>(c.engine)]) +
         (c.landmarks ? "_landmarks" : "_plain") + "_threads" + std::to_string(c.threads);
}

void PrintTo(const EngineCase& c, std::ostream* os) { *os << case_name(c); }

class IncrementalIdentity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(IncrementalIdentity, MatchesFromScratchRefineAfterEveryBatch) {
  const roadnet::RoadNetwork net = roadnet::make_grid(20, 20, 100.0);
  const std::vector<traj::TrajectoryDataset> batches = tagged_batches(net, 22, 20, 4100);

  Config cfg;
  cfg.flow.min_card = 1.0;
  cfg.refine.epsilon = 300.0;
  cfg.refine.distance_engine = GetParam().engine;
  cfg.refine.use_landmarks = GetParam().landmarks;
  cfg.refine.num_landmarks = 4;
  cfg.refine.threads = GetParam().threads;
  const Refiner reference(net, cfg.refine);

  for (const std::size_t window : {std::size_t{3}, std::size_t{0}}) {
    IncrementalOptions opts;
    opts.window_batches = window;
    IncrementalClusterer inc(net, cfg, opts);
    std::size_t multi_flow_clusters = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      inc.add_batch(batches[b]);
      const std::string what = "window " + std::to_string(window) + ", batch " + std::to_string(b);
      expect_same_clusters(inc.clusters(), reference.refine(inc.flows()).clusters, what);
      for (const FinalCluster& c : inc.clusters()) multi_flow_clusters += c.flows.size() > 1;
    }
    // The data merges some flows and keeps others apart, so the check has
    // edges to get wrong.
    EXPECT_GT(multi_flow_clusters, 0u) << "window " << window;
    EXPECT_GT(inc.clusters().size(), 1u) << "window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesLandmarksThreads, IncrementalIdentity,
    ::testing::Values(EngineCase{DistanceEngine::kDijkstra, false, 1},
                      EngineCase{DistanceEngine::kDijkstra, false, 4},
                      EngineCase{DistanceEngine::kDijkstra, true, 1},
                      EngineCase{DistanceEngine::kDijkstra, true, 4},
                      EngineCase{DistanceEngine::kCh, false, 1},
                      EngineCase{DistanceEngine::kCh, false, 4},
                      EngineCase{DistanceEngine::kCh, true, 1},
                      EngineCase{DistanceEngine::kCh, true, 4},
                      EngineCase{DistanceEngine::kChTable, false, 1},
                      EngineCase{DistanceEngine::kChTable, false, 4},
                      EngineCase{DistanceEngine::kChTable, true, 1},
                      EngineCase{DistanceEngine::kChTable, true, 4}),
    [](const auto& info) { return case_name(info.param); });

TEST(IncrementalWork, BatchComputesFewerShortestPathsThanFromScratch) {
  const roadnet::RoadNetwork net = roadnet::make_grid(12, 12, 100.0);
  const std::vector<traj::TrajectoryDataset> batches = tagged_batches(net, 5, 10, 5200);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 3;
  IncrementalClusterer inc(net, cfg, opts);
  for (std::size_t b = 0; b + 1 < batches.size(); ++b) inc.add_batch(batches[b]);

  obs::Counter& sp = obs::Registry::global().counter("neat_core_sp_computations_total");
  const std::uint64_t before_batch = sp.value();
  inc.add_batch(batches.back());
  const std::uint64_t batch_work = sp.value() - before_batch;

  const std::uint64_t before_scratch = sp.value();
  const Phase3Output scratch = Refiner(net, cfg.refine).refine(inc.flows());
  const std::uint64_t scratch_work = sp.value() - before_scratch;

  EXPECT_EQ(scratch_work, scratch.sp_computations);
  EXPECT_GT(scratch_work, 0u);
  EXPECT_LT(batch_work, scratch_work);
}

TEST(IncrementalEdges, EmptyBatchAndFlowlessBatchKeepTheClusters) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  // Three batches fill the window; the fourth refills it after it empties.
  const std::vector<traj::TrajectoryDataset> batches = tagged_batches(net, 4, 10, 6300);

  // With minCard 2, a lone trajectory's flow is filtered out: the batch
  // yields no flow.
  traj::TrajectoryDataset flowless;
  flowless.add(traj::Trajectory(TrajectoryId(90000), batches[0][0].points()));
  Config cfg;
  cfg.flow.min_card = 2.0;
  cfg.refine.epsilon = 400.0;
  Config flow_cfg = cfg;
  flow_cfg.mode = Mode::kFlow;
  ASSERT_TRUE(NeatClusterer(net, flow_cfg).run(flowless).flow_clusters.empty());

  for (const std::size_t window : {std::size_t{2}, std::size_t{0}}) {
    IncrementalOptions opts;
    opts.window_batches = window;
    IncrementalClusterer inc(net, cfg, opts);
    const Refiner reference(net, cfg.refine);

    EXPECT_TRUE(inc.add_batch(traj::TrajectoryDataset{}).empty());
    for (std::size_t b = 0; b < 3; ++b) inc.add_batch(batches[b]);
    ASSERT_FALSE(inc.flows().empty());

    inc.add_batch(traj::TrajectoryDataset{});
    expect_same_clusters(inc.clusters(), reference.refine(inc.flows()).clusters,
                         "empty batch, window " + std::to_string(window));
    inc.add_batch(flowless);
    expect_same_clusters(inc.clusters(), reference.refine(inc.flows()).clusters,
                         "flowless batch, window " + std::to_string(window));
    if (window > 0) {
      // Two batches without flows slid every flow out of the window.
      EXPECT_TRUE(inc.flows().empty());
      EXPECT_TRUE(inc.clusters().empty());
    }
    inc.add_batch(batches[3]);
    ASSERT_FALSE(inc.flows().empty());
    expect_same_clusters(inc.clusters(), reference.refine(inc.flows()).clusters,
                         "after refill, window " + std::to_string(window));
  }
}

}  // namespace
}  // namespace neat
