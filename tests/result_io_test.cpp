// Tests for clustering-snapshot persistence and GeoJSON export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/clusterer.h"
#include "core/result_io.h"
#include "eval/geojson.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

Result cluster_grid(const roadnet::RoadNetwork& net) {
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(40, 12);
  Config cfg;
  cfg.refine.epsilon = 500.0;
  return NeatClusterer(net, cfg).run(data);
}

TEST(Snapshot, RoundTripPreservesEverything) {
  const roadnet::RoadNetwork net = roadnet::make_grid(9, 9, 110.0);
  const Result res = cluster_grid(net);
  ASSERT_FALSE(res.flow_clusters.empty());

  ClusteringSnapshot snap{res.flow_clusters, res.final_clusters};
  std::stringstream ss;
  save_snapshot(snap, ss);
  const ClusteringSnapshot loaded = load_snapshot(ss);

  ASSERT_EQ(loaded.flows.size(), snap.flows.size());
  for (std::size_t i = 0; i < snap.flows.size(); ++i) {
    EXPECT_EQ(loaded.flows[i].route, snap.flows[i].route);
    EXPECT_EQ(loaded.flows[i].junctions, snap.flows[i].junctions);
    EXPECT_EQ(loaded.flows[i].participants, snap.flows[i].participants);
    EXPECT_NEAR(loaded.flows[i].route_length, snap.flows[i].route_length, 1e-5);
  }
  ASSERT_EQ(loaded.final_clusters.size(), snap.final_clusters.size());
  for (std::size_t i = 0; i < snap.final_clusters.size(); ++i) {
    EXPECT_EQ(loaded.final_clusters[i].flows, snap.final_clusters[i].flows);
    EXPECT_EQ(loaded.final_clusters[i].participants, snap.final_clusters[i].participants);
  }
}

TEST(Snapshot, EmptySnapshot) {
  std::stringstream ss;
  save_snapshot(ClusteringSnapshot{}, ss);
  const ClusteringSnapshot loaded = load_snapshot(ss);
  EXPECT_TRUE(loaded.flows.empty());
  EXPECT_TRUE(loaded.final_clusters.empty());
}

TEST(Snapshot, RejectsMalformedInput) {
  {
    std::stringstream ss("banana,1,2\n");
    EXPECT_THROW(load_snapshot(ss), ParseError);
  }
  {
    std::stringstream ss("flow,0\n");  // wrong field count
    EXPECT_THROW(load_snapshot(ss), ParseError);
  }
  {
    // Flow with a route but no junctions: structural invariant broken.
    std::stringstream ss("flow,0,100\nflowroute,0,0,5\n");
    EXPECT_THROW(load_snapshot(ss), ParseError);
  }
  {
    // Final cluster referencing a missing flow.
    std::stringstream ss("final,0,100\nfinalflow,0,7\n");
    EXPECT_THROW(load_snapshot(ss), ParseError);
  }
  {
    std::stringstream ss("flow,-3,100\n");
    EXPECT_THROW(load_snapshot(ss), ParseError);
  }
  // Indices must name an existing element or the next one, ids must be
  // network ids and lengths finite; each violation names its line. A
  // negative sequence once wrote out of bounds, and huge indices reached an
  // allocation that threw std::bad_alloc.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"flow,0,1.0\nflowroute,0,-1,5\n", "line 2: route index -1 is outside [0, 0]"},
      {"flow,100000000000,1.0\n", "line 1: flow index 100000000000 is outside [0, 0]"},
      {"flow,0,1.0\nflowroute,0,100000000000,5\n", "line 2: route index 100000000000"},
      {"flow,0,1.0\nflowroute,0,0,4294967301\n", "line 2: segment id 4294967301 is outside"},
      {"flow,0,1.0\nflowjunction,0,0,-2\n", "line 2: node id -2 is outside"},
      {"flow,0,nan\n", "line 1: route length must be finite"},
      {"final,0,inf\n", "line 1: total route length must be finite"},
      {"flow,0,1.0\nflowpart,1,7\nflowpart,3,8\n", "line 3: flow index 3 is outside [0, 2]"},
      {"\nfinal,1,1.0\n", "line 2: final-cluster index 1 is outside [0, 0]"},
  };
  for (const auto& [csv, expected] : cases) {
    std::stringstream ss(csv);
    try {
      static_cast<void>(load_snapshot(ss));
      ADD_FAILURE() << "no ParseError for " << csv;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << csv << " -> " << e.what();
    }
  }
}

TEST(Snapshot, FileErrors) {
  EXPECT_THROW(load_snapshot("/nonexistent/snapshot.csv"), Error);
  EXPECT_THROW(save_snapshot(ClusteringSnapshot{}, "/nonexistent/dir/snap.csv"), Error);
}

TEST(GeoJson, NetworkStructure) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const std::string json = eval::network_to_geojson(net);
  EXPECT_NE(json.find("\"type\":\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"LineString\""), std::string::npos);
  EXPECT_NE(json.find("\"sid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"sid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"speed_mps\":10.00"), std::string::npos);
  // Balanced braces and brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(GeoJson, FlowsCarryClusterProperty) {
  const roadnet::RoadNetwork net = roadnet::make_grid(9, 9, 110.0);
  const Result res = cluster_grid(net);
  ASSERT_FALSE(res.flow_clusters.empty());
  const std::string json =
      eval::flows_to_geojson(net, res.flow_clusters, &res.final_clusters);
  EXPECT_NE(json.find("\"flow\":0"), std::string::npos);
  EXPECT_NE(json.find("\"final_cluster\":"), std::string::npos);
  EXPECT_NE(json.find("\"cardinality\":"), std::string::npos);
  const std::string without = eval::flows_to_geojson(net, res.flow_clusters, nullptr);
  EXPECT_EQ(without.find("\"final_cluster\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(GeoJson, TrajectoriesAndEmptyCollections) {
  traj::TrajectoryDataset data;
  traj::Trajectory tr(TrajectoryId(42));
  tr.append({SegmentId(0), {0, 0}, 0.0, false});
  tr.append({SegmentId(0), {10, 0}, 1.0, false});
  data.add(std::move(tr));
  const std::string json = eval::trajectories_to_geojson(data);
  EXPECT_NE(json.find("\"trid\":42"), std::string::npos);
  const std::string empty = eval::trajectories_to_geojson(traj::TrajectoryDataset{});
  EXPECT_NE(empty.find("\"features\":[]"), std::string::npos);
}

}  // namespace
}  // namespace neat
