// Tests for sharded Phase 1 (the paper's §II-C deployment): Phase 1 over
// contiguous batches of a source followed by the exact merge equals the
// single-batch run in every Result field, merge semantics for overlapping
// segments, and duplicate trajectory ids across batches are rejected.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

// A source over a plain trajectory vector: unlike a TrajectoryDataset it
// accepts repeated ids, so it can hand a duplicate to two batches.
class VectorSource final : public TrajectorySource {
 public:
  explicit VectorSource(std::vector<traj::Trajectory> trajectories)
      : trajectories_(std::move(trajectories)) {}
  [[nodiscard]] std::size_t size() const override { return trajectories_.size(); }
  [[nodiscard]] traj::Trajectory at(std::size_t i) const override { return trajectories_[i]; }

 private:
  std::vector<traj::Trajectory> trajectories_;
};

void expect_same_fragments(const BaseCluster& a, const BaseCluster& b) {
  ASSERT_EQ(a.fragments().size(), b.fragments().size());
  for (std::size_t f = 0; f < a.fragments().size(); ++f) {
    const TFragment& fa = a.fragments()[f];
    const TFragment& fb = b.fragments()[f];
    EXPECT_EQ(fa.trid, fb.trid);
    EXPECT_EQ(fa.entry.pos, fb.entry.pos);
    EXPECT_EQ(fa.entry.t, fb.entry.t);
    EXPECT_EQ(fa.exit.pos, fb.exit.pos);
    EXPECT_EQ(fa.exit.t, fb.exit.t);
    EXPECT_EQ(fa.num_samples, fb.num_samples);
  }
}

void expect_same_flows(const std::vector<FlowCluster>& a, const std::vector<FlowCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_EQ(a[i].route, b[i].route);
    EXPECT_EQ(a[i].junctions, b[i].junctions);
    EXPECT_EQ(a[i].participants, b[i].participants);
    EXPECT_EQ(a[i].route_length, b[i].route_length);
  }
}

// Every field of Result except the wall-clock timings.
void expect_same_result(const Result& a, const Result& b) {
  EXPECT_EQ(a.num_fragments, b.num_fragments);
  EXPECT_EQ(a.num_gap_repairs, b.num_gap_repairs);
  ASSERT_EQ(a.base_clusters.size(), b.base_clusters.size());
  for (std::size_t i = 0; i < a.base_clusters.size(); ++i) {
    EXPECT_EQ(a.base_clusters[i].sid(), b.base_clusters[i].sid());
    EXPECT_EQ(a.base_clusters[i].density(), b.base_clusters[i].density());
    EXPECT_EQ(a.base_clusters[i].participants(), b.base_clusters[i].participants());
    expect_same_fragments(a.base_clusters[i], b.base_clusters[i]);
  }
  expect_same_flows(a.flow_clusters, b.flow_clusters);
  expect_same_flows(a.filtered_flows, b.filtered_flows);
  EXPECT_EQ(a.effective_min_card, b.effective_min_card);
  ASSERT_EQ(a.final_clusters.size(), b.final_clusters.size());
  for (std::size_t i = 0; i < a.final_clusters.size(); ++i) {
    EXPECT_EQ(a.final_clusters[i].flows, b.final_clusters[i].flows);
    EXPECT_EQ(a.final_clusters[i].total_route_length, b.final_clusters[i].total_route_length);
    EXPECT_EQ(a.final_clusters[i].participants, b.final_clusters[i].participants);
  }
  EXPECT_EQ(a.sp_computations, b.sp_computations);
  EXPECT_EQ(a.elb_pruned_pairs, b.elb_pruned_pairs);
  EXPECT_EQ(a.lm_pruned_pairs, b.lm_pruned_pairs);
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
  EXPECT_EQ(a.settled_nodes, b.settled_nodes);
}

TEST(MergePhase1, EmptyAndSingle) {
  EXPECT_TRUE(merge_phase1_outputs({}).base_clusters.empty());

  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  const Fragmenter fragmenter(net);
  Phase1Output whole = fragmenter.build_base_clusters(data);
  std::vector<Phase1Output> one;
  one.push_back(fragmenter.build_base_clusters(data));
  const Phase1Output merged = merge_phase1_outputs(std::move(one));
  ASSERT_EQ(merged.base_clusters.size(), whole.base_clusters.size());
  for (std::size_t i = 0; i < merged.base_clusters.size(); ++i) {
    EXPECT_EQ(merged.base_clusters[i].sid(), whole.base_clusters[i].sid());
    EXPECT_EQ(merged.base_clusters[i].density(), whole.base_clusters[i].density());
  }
}

TEST(MergePhase1, CombinesSharedSegments) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const Fragmenter fragmenter(net);
  // Shard 1: two trajectories on S1/S2; shard 2: one more on S1.
  traj::TrajectoryDataset shard1;
  shard1.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1), NodeId(2)}));
  shard1.add(testutil::make_path_trajectory(net, 2, {NodeId(0), NodeId(1), NodeId(2)}));
  traj::TrajectoryDataset shard2;
  shard2.add(testutil::make_path_trajectory(net, 3, {NodeId(0), NodeId(1)}));

  std::vector<Phase1Output> parts;
  parts.push_back(fragmenter.build_base_clusters(shard1));
  parts.push_back(fragmenter.build_base_clusters(shard2));
  const Phase1Output merged = merge_phase1_outputs(std::move(parts));
  ASSERT_EQ(merged.base_clusters.size(), 2u);  // S1 and S2
  EXPECT_EQ(merged.base_clusters[0].sid(), SegmentId(0));
  EXPECT_EQ(merged.base_clusters[0].density(), 3);
  EXPECT_EQ(merged.base_clusters[0].cardinality(), 3);
  EXPECT_EQ(merged.base_clusters[1].density(), 2);
  EXPECT_EQ(merged.num_fragments, 5u);
}

// k shards of a contiguous partition = batches of ceil(n / k) trajectories.
class ShardedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedEquivalence, MatchesMonolithicRun) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 33);

  Config cfg;
  cfg.refine.epsilon = 500.0;
  const Result whole = NeatClusterer(net, cfg).run(data);
  ASSERT_FALSE(whole.final_clusters.empty());
  ASSERT_GT(whole.settled_nodes, 0u);

  // Worker threads in both threaded phases too: nothing may depend on them.
  Config threaded = cfg;
  threaded.phase1_threads = 3;
  threaded.refine.threads = 2;
  StreamingPhase1Options shards;
  shards.batch_size = (data.size() + GetParam() - 1) / GetParam();
  DatasetSource source(data);
  expect_same_result(whole, NeatClusterer(net, threaded).run(source, shards));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalence, ::testing::Values(1u, 2u, 3u, 7u));

TEST(Sharded, RejectsDuplicateIdAcrossBatches) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const NodeId n1(0), n2(1), n3(2), n4(3);
  std::vector<traj::Trajectory> trajectories;
  trajectories.push_back(testutil::make_path_trajectory(net, 1, {n1, n2, n3}));
  trajectories.push_back(testutil::make_path_trajectory(net, 2, {n1, n2}));
  trajectories.push_back(testutil::make_path_trajectory(net, 2, {n4, n2, n3}));  // dup id 2
  StreamingPhase1Options two_batches;
  two_batches.batch_size = 2;
  VectorSource source(std::move(trajectories));
  try {
    (void)NeatClusterer(net, Config{}).run(source, two_batches);
    FAIL() << "duplicate trajectory id across batches was not rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("trajectory id 2"), std::string::npos) << e.what();
  }
}

TEST(MergePhase1, RejectsDuplicateTrajectoryIdsAcrossShards) {
  // Regression: a trajectory id repeated across shards used to merge
  // silently, deflating trajectory cardinalities. Now it throws.
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const NodeId n1(0), n2(1), n3(2), n4(3);

  traj::TrajectoryDataset shard_a;
  shard_a.add(testutil::make_path_trajectory(net, 1, {n1, n2, n3}));
  shard_a.add(testutil::make_path_trajectory(net, 2, {n1, n2}));
  traj::TrajectoryDataset shard_b;
  shard_b.add(testutil::make_path_trajectory(net, 2, {n4, n2, n3}));  // dup id 2

  const Fragmenter fragmenter(net);
  std::vector<Phase1Output> outputs;
  outputs.push_back(fragmenter.build_base_clusters(shard_a));
  outputs.push_back(fragmenter.build_base_clusters(shard_b));
  try {
    (void)merge_phase1_outputs(std::move(outputs));
    FAIL() << "duplicate trajectory id across shards was not rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("trajectory id 2"), std::string::npos)
        << e.what();
  }

  // Duplicates *within* one shard's clusters (one trajectory crossing many
  // segments) stay legal — only cross-shard repeats are errors.
  traj::TrajectoryDataset shard_c;
  shard_c.add(testutil::make_path_trajectory(net, 3, {n1, n2, n3}));
  std::vector<Phase1Output> ok;
  ok.push_back(fragmenter.build_base_clusters(shard_a));
  ok.push_back(fragmenter.build_base_clusters(shard_c));
  EXPECT_NO_THROW((void)merge_phase1_outputs(std::move(ok)));
}

TEST(Sharded, BaseModeStopsAfterMerge) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  Config cfg;
  cfg.mode = Mode::kBase;
  StreamingPhase1Options shards;
  shards.batch_size = 2;
  DatasetSource source(data);
  const Result res = NeatClusterer(net, cfg).run(source, shards);
  EXPECT_FALSE(res.base_clusters.empty());
  EXPECT_TRUE(res.flow_clusters.empty());
  EXPECT_EQ(res.num_fragments, NeatClusterer(net, cfg).run(data).num_fragments);
}

}  // namespace
}  // namespace neat
