// Robustness and fuzz-style tests: CSV round-trips under adversarial field
// contents, geometry properties against brute-force checks, degenerate
// clustering inputs, and failure-injection on persistence layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/clusterer.h"
#include "core/flow_builder.h"
#include "core/fragmenter.h"
#include "core/refiner.h"
#include "core/result_io.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "test_util.h"
#include "traj/io.h"

namespace neat {
namespace {

// --- CSV fuzz ---------------------------------------------------------------

std::string random_field(Rng& rng) {
  static const std::string alphabet =
      "abcXYZ019 ,\"\n\r\t;|\\'`~!@#$%^&*()_+-=[]{}<>?/";
  std::string out;
  const auto len = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t i = 0; i < len; ++i) {
    out += alphabet[rng.index(alphabet.size())];
  }
  return out;
}

class CsvFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzz, ArbitraryFieldsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  std::vector<std::vector<std::string>> rows;
  const auto n_rows = static_cast<std::size_t>(rng.uniform_int(1, 20));
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    const auto n_fields = static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t f = 0; f < n_fields; ++f) row.push_back(random_field(rng));
    // A row whose single field is empty is indistinguishable from a blank
    // line; avoid that ambiguity the same way real emitters do.
    if (row.size() == 1 && row[0].empty()) row[0] = "x";
    rows.push_back(std::move(row));
  }
  std::stringstream ss;
  CsvWriter writer(ss);
  for (const auto& row : rows) writer.write_row(row);
  CsvReader reader(ss);
  std::vector<std::string_view> row;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ASSERT_TRUE(reader.read_row(row)) << "row " << r << " missing";
    ASSERT_EQ(row.size(), rows[r].size()) << "row " << r;
    for (std::size_t f = 0; f < row.size(); ++f) {
      // A '\r' ending a line is a line terminator; our writer quotes
      // fields containing '\r', so content survives exactly.
      EXPECT_EQ(row[f], rows[r][f]) << "row " << r << " field " << f;
    }
  }
  EXPECT_FALSE(reader.read_row(row));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Range(0, 10));

// --- network CSV ids ----------------------------------------------------------

// The golden network file with `row` appended, loaded by path the way
// neat_cli loads it. Returns the ParseError's message ("" when it loads).
std::string golden_network_with(const std::string& row) {
  const std::string src = std::string(NEAT_TEST_DATA_DIR) + "/golden_network.csv";
  const std::string path = ::testing::TempDir() + "robustness_network.csv";
  {
    std::ifstream in(src);
    std::ofstream out(path);
    out << in.rdbuf() << row << "\n";
  }
  try {
    static_cast<void>(roadnet::load_network(path));
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

std::size_t golden_network_lines() {
  std::ifstream in(std::string(NEAT_TEST_DATA_DIR) + "/golden_network.csv");
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

TEST(NetworkCsvIds, NegativeAndHugeIdsAreTypedErrors) {
  // A negative id must not wrap to a huge size_t index, and a huge one must
  // not reach an allocation: both are rejected before any resize.
  const std::string line = "line " + std::to_string(golden_network_lines() + 1) + ":";
  const std::vector<std::string> rows = {
      "node,-1,1.0,2.0",
      "node,100000000000,1.0,2.0",
      "node,16777216,1.0,2.0",  // one above the documented cap
      "segment,-1,0,1,100.0,10.0,1",
      "segment,100000000000,0,1,100.0,10.0,1",
      "segment,0,-1,1,100.0,10.0,1",
      "segment,0,0,4294967297,100.0,10.0,1",  // truncated to node 1 by an int32 cast
  };
  for (const std::string& row : rows) {
    const std::string msg = golden_network_with(row);
    EXPECT_EQ(msg.rfind(line, 0), 0u) << row << " -> " << msg;
    EXPECT_NE(msg.find("is outside [0, 16777215]"), std::string::npos) << row << " -> " << msg;
  }
  EXPECT_EQ(roadnet::kMaxNetworkId, 16777215);
  EXPECT_EQ(golden_network_with(""), "");
}

// --- loader mutation fuzz ----------------------------------------------------

std::string read_fixture(const std::string& name, std::size_t max_lines) {
  std::ifstream in(std::string(NEAT_TEST_DATA_DIR) + "/" + name);
  std::string text;
  std::string line;
  for (std::size_t n = 0; n < max_lines && std::getline(in, line); ++n) text += line + "\n";
  return text;
}

// Start offsets of the lines of `text`.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

// Applies one seeded mutation: a bit flip, a truncation, a row copied to
// another line start, or a token that has broken a loader before, either
// replacing a field or inserted anywhere.
void mutate(std::string& text, Rng& rng) {
  static const std::vector<std::string> tokens = {
      "-1", "4294967297", "100000000000", "nan", "inf", "1e400", "\"", "\r", ",,"};
  if (text.empty()) return;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      text[rng.index(text.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      break;
    case 1:
      text.resize(rng.index(text.size()));
      break;
    case 2: {
      const std::vector<std::size_t> starts = line_starts(text);
      const std::size_t from = rng.index(starts.size());
      const std::size_t end = text.find('\n', starts[from]);
      const std::string row =
          text.substr(starts[from], end == std::string::npos ? std::string::npos
                                                             : end + 1 - starts[from]);
      text.insert(starts[rng.index(starts.size())], row);
      break;
    }
    case 3: {
      const std::size_t at = rng.index(text.size());
      const std::size_t begin = text.find_last_of(",\n", at) + 1;  // npos + 1 == 0
      const std::size_t end = std::min(text.find_first_of(",\n", at), text.size());
      text.replace(begin, end > begin ? end - begin : 0, tokens[rng.index(tokens.size())]);
      break;
    }
    default:
      text.insert(rng.index(text.size() + 1), tokens[rng.index(tokens.size())]);
  }
}

class LoaderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LoaderFuzz, MutatedGoldenFilesLoadOrThrowTypedErrors) {
  // The golden inputs, trajectories cut to a prefix to keep the budget small.
  struct Target {
    const char* file;
    std::size_t max_lines;
    std::function<void(std::istream&)> load;
  };
  const std::vector<Target> targets = {
      {"golden_trajectories.csv", 600,
       [](std::istream& in) { static_cast<void>(traj::load_dataset(in)); }},
      {"golden_network.csv", 2000,
       [](std::istream& in) { static_cast<void>(roadnet::load_network(in)); }},
      {"golden_result.csv", 2000, [](std::istream& in) { static_cast<void>(load_snapshot(in)); }},
  };
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  for (const Target& target : targets) {
    const std::string golden = read_fixture(target.file, target.max_lines);
    ASSERT_FALSE(golden.empty()) << target.file;
    for (int mutant = 0; mutant < 16; ++mutant) {
      std::string text = golden;
      const auto mutations = rng.uniform_int(1, 3);
      for (std::int64_t m = 0; m < mutations; ++m) mutate(text, rng);
      std::istringstream in(text);
      try {
        target.load(in);
      } catch (const Error&) {
        // A typed error is the expected outcome for most mutants.
      } catch (const std::exception& e) {
        ADD_FAILURE() << target.file << " mutant " << mutant
                      << " threw a non-neat exception: " << e.what();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoaderFuzz, ::testing::Range(0, 16));

// --- geometry property -------------------------------------------------------

TEST(GeometryProperty, ProjectionIsNearestPointOnSegment) {
  Rng rng(99);
  for (int k = 0; k < 200; ++k) {
    const Point a{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point b{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point p{rng.uniform(-150, 150), rng.uniform(-150, 150)};
    const Projection proj = project_onto_segment(p, a, b);
    // No sampled point on the segment may be closer than the projection.
    for (int s = 0; s <= 50; ++s) {
      const Point q = lerp(a, b, s / 50.0);
      EXPECT_GE(distance(p, q) + 1e-9, proj.dist);
    }
    EXPECT_GE(proj.t, 0.0);
    EXPECT_LE(proj.t, 1.0);
  }
}

TEST(GeometryProperty, TriangleInequalityOnPolylineLength) {
  Rng rng(7);
  for (int k = 0; k < 50; ++k) {
    std::vector<Point> pts;
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
    }
    EXPECT_GE(polyline_length(pts) + 1e-9, distance(pts.front(), pts.back()));
  }
}

// --- degenerate clustering inputs --------------------------------------------

TEST(Degenerate, AllPointsIdentical) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  traj::TrajectoryDataset data;
  traj::Trajectory tr(TrajectoryId(1));
  for (int i = 0; i < 5; ++i) {
    tr.append(traj::Location{SegmentId(1), {150, 0}, static_cast<double>(i), false});
  }
  data.add(std::move(tr));
  Config cfg;
  cfg.flow.min_card = 0.0;
  const Result res = NeatClusterer(net, cfg).run(data);
  ASSERT_EQ(res.base_clusters.size(), 1u);
  EXPECT_EQ(res.base_clusters[0].density(), 1);
  EXPECT_EQ(res.flow_clusters.size(), 1u);
  EXPECT_EQ(res.final_clusters.size(), 1u);
}

TEST(Degenerate, ZeroDurationTrajectory) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(traj::Location{SegmentId(0), {10, 0}, 5.0, false});
  tr.append(traj::Location{SegmentId(1), {150, 0}, 5.0, false});  // same instant
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_DOUBLE_EQ(frags[0].exit.t, 5.0);  // interpolation cannot overshoot
}

TEST(Degenerate, SingleBaseClusterFlow) {
  const roadnet::RoadNetwork net = testutil::line_network(1);
  traj::TrajectoryDataset data;
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(traj::Location{SegmentId(0), {10, 0}, 0.0, false});
  tr.append(traj::Location{SegmentId(0), {90, 0}, 8.0, false});
  data.add(std::move(tr));
  Config cfg;
  cfg.flow.min_card = 0.0;
  const Result res = NeatClusterer(net, cfg).run(data);
  ASSERT_EQ(res.flow_clusters.size(), 1u);
  EXPECT_EQ(res.flow_clusters[0].route, std::vector<SegmentId>{SegmentId(0)});
  EXPECT_EQ(res.final_clusters.size(), 1u);
}

TEST(Degenerate, FlowsWithIdenticalEndpointsMerge) {
  // Two flows over the same route (possible via disjoint trajectory sets)
  // have distance 0 and must merge at any epsilon.
  const roadnet::RoadNetwork net = testutil::line_network(4);
  FlowCluster a;
  a.route = {SegmentId(1)};
  a.junctions = {NodeId(1), NodeId(2)};
  a.route_length = 100.0;
  a.participants = {TrajectoryId(1)};
  FlowCluster b = a;
  b.participants = {TrajectoryId(2)};
  RefineConfig cfg;
  cfg.epsilon = 1.0;
  const Phase3Output out = Refiner(net, cfg).refine({a, b});
  ASSERT_EQ(out.clusters.size(), 1u);
  EXPECT_EQ(out.clusters[0].cardinality(), 2);
}

TEST(Degenerate, DisconnectedSubnetworksRefineSeparately) {
  // Two disjoint components: network distance is infinite across them, so
  // flows never merge regardless of epsilon.
  roadnet::RoadNetworkBuilder b;
  const NodeId a0 = b.add_node({0, 0});
  const NodeId a1 = b.add_node({100, 0});
  const NodeId c0 = b.add_node({120, 0});  // Euclid-close but unconnected
  const NodeId c1 = b.add_node({220, 0});
  b.add_segment(a0, a1, 10.0);
  b.add_segment(c0, c1, 10.0);
  const roadnet::RoadNetwork net = b.build();
  FlowCluster fa;
  fa.route = {SegmentId(0)};
  fa.junctions = {a0, a1};
  fa.route_length = 100.0;
  FlowCluster fb;
  fb.route = {SegmentId(1)};
  fb.junctions = {c0, c1};
  fb.route_length = 100.0;
  RefineConfig cfg;
  cfg.epsilon = 1e7;
  cfg.bound_searches_at_epsilon = false;
  const Phase3Output out = Refiner(net, cfg).refine({fa, fb});
  EXPECT_EQ(out.clusters.size(), 2u);
}

TEST(Degenerate, DatasetIoRoundTripsExtremeValues) {
  traj::TrajectoryDataset data;
  traj::Trajectory tr(TrajectoryId(std::numeric_limits<std::int32_t>::max()));
  tr.append(traj::Location{SegmentId(0), {-1e7, 1e7}, 0.0, false});
  tr.append(traj::Location{SegmentId(0), {1e-4, -1e-4}, 1e6, true});
  data.add(std::move(tr));
  std::stringstream ss;
  traj::save_dataset(data, ss);
  const traj::TrajectoryDataset loaded = traj::load_dataset(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_NEAR(loaded[0].point(0).pos.x, -1e7, 1.0);
  EXPECT_NEAR(loaded[0].point(1).t, 1e6, 1e-3);
}

TEST(Degenerate, BuilderRejectsNonFiniteInput) {
  roadnet::RoadNetworkBuilder b;
  EXPECT_THROW(b.add_node({std::nan(""), 0.0}), PreconditionError);
  EXPECT_THROW(b.add_node({0.0, std::numeric_limits<double>::infinity()}),
               PreconditionError);
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  EXPECT_THROW(b.add_segment(a, c, std::nan("")), Error);
}

TEST(Degenerate, WeightNormalizationInvariance) {
  // SF weights are normalized: (2, 0, 0) behaves exactly like (1, 0, 0).
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  const Fragmenter fragmenter(net);
  const Phase1Output p1 = fragmenter.build_base_clusters(data);
  FlowConfig unit;
  unit.min_card = 0.0;
  FlowConfig scaled = unit;
  scaled.wq = 17.0;
  const Phase2Output a = FlowBuilder(net, p1.base_clusters, unit).build();
  const Phase2Output b = FlowBuilder(net, p1.base_clusters, scaled).build();
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].route, b.flows[i].route);
  }
}

}  // namespace
}  // namespace neat
