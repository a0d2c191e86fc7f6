// Tests for the parallel Phase 1 path: bit-identical results to the serial
// run for any thread count, through both the Fragmenter API and the full
// clusterer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.h"
#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "store/columnar_store.h"
#include "traj/columnar.h"

namespace neat {
namespace {

void expect_identical(const Phase1Output& a, const Phase1Output& b) {
  EXPECT_EQ(a.num_fragments, b.num_fragments);
  EXPECT_EQ(a.num_gap_repairs, b.num_gap_repairs);
  ASSERT_EQ(a.base_clusters.size(), b.base_clusters.size());
  for (std::size_t i = 0; i < a.base_clusters.size(); ++i) {
    const BaseCluster& ca = a.base_clusters[i];
    const BaseCluster& cb = b.base_clusters[i];
    EXPECT_EQ(ca.sid(), cb.sid());
    EXPECT_EQ(ca.density(), cb.density());
    EXPECT_EQ(ca.participants(), cb.participants());
    ASSERT_EQ(ca.fragments().size(), cb.fragments().size());
    for (std::size_t f = 0; f < ca.fragments().size(); ++f) {
      EXPECT_EQ(ca.fragments()[f].trid, cb.fragments()[f].trid);
      EXPECT_EQ(ca.fragments()[f].entry.pos, cb.fragments()[f].entry.pos);
      EXPECT_EQ(ca.fragments()[f].exit.pos, cb.fragments()[f].exit.pos);
      EXPECT_EQ(ca.fragments()[f].num_samples, cb.fragments()[f].num_samples);
    }
  }
}

class ParallelPhase1 : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPhase1, IdenticalToSerial) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 15);
  const Fragmenter fragmenter(net);
  const Phase1Output serial = fragmenter.build_base_clusters(data, 1);
  const Phase1Output parallel = fragmenter.build_base_clusters(data, GetParam());
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelPhase1, ::testing::Values(0u, 2u, 3u, 8u));

TEST(ParallelPhase1, MoreThreadsThanTrajectories) {
  const roadnet::RoadNetwork net = roadnet::make_grid(5, 5, 100.0);
  sim::SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(24)};
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, cfg).generate(3, 2);
  const Fragmenter fragmenter(net);
  expect_identical(fragmenter.build_base_clusters(data, 1),
                   fragmenter.build_base_clusters(data, 64));
}

TEST(ParallelPhase1, EmptyDataset) {
  const roadnet::RoadNetwork net = roadnet::make_grid(4, 4, 100.0);
  const Fragmenter fragmenter(net);
  const Phase1Output out = fragmenter.build_base_clusters(traj::TrajectoryDataset{}, 4);
  EXPECT_TRUE(out.base_clusters.empty());
  EXPECT_EQ(out.num_fragments, 0u);
}

TEST(ParallelPhase1, FullPipelineUnchanged) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(50, 19);
  Config serial_cfg;
  serial_cfg.refine.epsilon = 500.0;
  Config parallel_cfg = serial_cfg;
  parallel_cfg.phase1_threads = 4;
  const Result a = NeatClusterer(net, serial_cfg).run(data);
  const Result b = NeatClusterer(net, parallel_cfg).run(data);
  ASSERT_EQ(a.flow_clusters.size(), b.flow_clusters.size());
  for (std::size_t i = 0; i < a.flow_clusters.size(); ++i) {
    EXPECT_EQ(a.flow_clusters[i].route, b.flow_clusters[i].route);
    EXPECT_EQ(a.flow_clusters[i].participants, b.flow_clusters[i].participants);
  }
  ASSERT_EQ(a.final_clusters.size(), b.final_clusters.size());
  for (std::size_t i = 0; i < a.final_clusters.size(); ++i) {
    EXPECT_EQ(a.final_clusters[i].flows, b.final_clusters[i].flows);
  }
}

// A sample on a segment the network lacks is a typed error at every thread
// count: a worker's exception is handed to the calling thread after the join
// instead of escaping its std::thread (which would call std::terminate).
TEST(ParallelPhase1, MissingSegmentThrowsNotFoundAtAnyThreadCount) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  const traj::TrajectoryDataset good = sim::MobilitySimulator(net, scfg).generate(60, 15);
  traj::TrajectoryDataset bad;
  for (std::size_t i = 0; i < good.size(); ++i) {
    traj::Trajectory tr = good[i];
    if (i == 37) {
      tr.append(traj::Location{SegmentId(999999), tr.back().pos, tr.back().t + 1.0, false});
    }
    bad.add(std::move(tr));
  }
  const std::string path = ::testing::TempDir() + "neat_parallel_phase1_bad.neatcol";
  traj::save_columnar(bad, path);
  const store::ColumnarTrajectoryStore cstore(path);

  const Fragmenter fragmenter(net);
  StreamingPhase1Options batches;
  batches.batch_size = 16;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_THROW((void)fragmenter.build_base_clusters(bad, threads), NotFoundError) << threads;
    store::ColumnarTrajectorySource source(cstore);
    EXPECT_THROW((void)fragmenter.build_base_clusters(source, threads, batches), NotFoundError)
        << threads;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace neat
