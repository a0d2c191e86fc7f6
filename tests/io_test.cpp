// Round-trip tests for network and dataset persistence, plus equivalence
// of the trajectory loader with an independent reference parse built on a
// char-by-char RFC-4180 reader.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "test_util.h"
#include "traj/io.h"

namespace neat {
namespace {

/// Reference CSV row reader, one char at a time: quoted fields may hold the
/// separator, doubled quotes and newlines; a '\r' outside quotes is dropped.
/// Reads the next row into `fields`; returns false at end of input.
bool reference_read_row(std::istream& in, std::vector<std::string>& fields) {
  fields.clear();
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  char c = 0;
  while (in.get(c)) {
    saw_any = true;
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      if (!field.empty()) throw ParseError("quote in the middle of an unquoted CSV field");
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      fields.push_back(std::move(field));
      return true;
    } else if (c != '\r') {
      field += c;
    }
  }
  if (in_quotes) throw ParseError("unterminated quoted CSV field");
  if (!saw_any) return false;
  fields.push_back(std::move(field));
  return true;
}

/// Reference trajectory parser on reference_read_row. The production loader
/// must produce exactly this.
traj::TrajectoryDataset reference_load_dataset(std::istream& in) {
  traj::TrajectoryDataset data;
  std::vector<std::string> row;
  traj::Trajectory current;
  bool has_current = false;
  while (reference_read_row(in, row)) {
    if (row.size() == 1 && trim(row[0]).empty()) continue;
    if (row.size() != 7) throw ParseError("location row needs 7 fields");
    const auto trid = TrajectoryId(parse_int(row[0]));
    if (!has_current || current.id() != trid) {
      if (has_current) data.add(std::move(current));
      current = traj::Trajectory(trid);
      has_current = true;
    }
    traj::Location loc;
    loc.sid = SegmentId(static_cast<std::int32_t>(parse_int(row[2])));
    loc.pos = {parse_double(row[3]), parse_double(row[4])};
    loc.t = parse_double(row[5]);
    loc.junction_point = parse_int(row[6]) != 0;
    current.append(loc);
  }
  if (has_current) data.add(std::move(current));
  return data;
}

void expect_same_dataset(const traj::TrajectoryDataset& a, const traj::TrajectoryDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id(), b[i].id());
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t p = 0; p < a[i].size(); ++p) {
      EXPECT_EQ(a[i].point(p).sid, b[i].point(p).sid);
      EXPECT_EQ(a[i].point(p).pos.x, b[i].point(p).pos.x);
      EXPECT_EQ(a[i].point(p).pos.y, b[i].point(p).pos.y);
      EXPECT_EQ(a[i].point(p).t, b[i].point(p).t);
      EXPECT_EQ(a[i].point(p).junction_point, b[i].point(p).junction_point);
    }
  }
}

TEST(NetworkIo, RoundTripPreservesEverything) {
  roadnet::CityParams p;
  p.rows = 10;
  p.cols = 10;
  p.oneway_probability = 0.2;
  p.seed = 3;
  const roadnet::RoadNetwork original = roadnet::make_city(p);

  std::stringstream ss;
  roadnet::save_network(original, ss);
  const roadnet::RoadNetwork loaded = roadnet::load_network(ss);

  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.segment_count(), original.segment_count());
  for (std::size_t i = 0; i < original.node_count(); ++i) {
    const auto id = NodeId(static_cast<std::int32_t>(i));
    EXPECT_NEAR(loaded.node(id).pos.x, original.node(id).pos.x, 1e-3);
    EXPECT_NEAR(loaded.node(id).pos.y, original.node(id).pos.y, 1e-3);
  }
  for (std::size_t i = 0; i < original.segment_count(); ++i) {
    const auto id = SegmentId(static_cast<std::int32_t>(i));
    EXPECT_EQ(loaded.segment(id).a, original.segment(id).a);
    EXPECT_EQ(loaded.segment(id).b, original.segment(id).b);
    EXPECT_EQ(loaded.segment(id).bidirectional, original.segment(id).bidirectional);
    EXPECT_NEAR(loaded.segment(id).length, original.segment(id).length, 2e-3);
    EXPECT_NEAR(loaded.segment(id).speed_limit, original.segment(id).speed_limit, 1e-3);
  }
}

TEST(NetworkIo, RejectsMalformedRows) {
  {
    std::stringstream ss("node,0,1\n");  // missing y
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
  {
    std::stringstream ss("banana,0\n");
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
  {
    // Segment references a node that never appears.
    std::stringstream ss("node,0,0,0\nsegment,0,0,5,100,10,1\n");
    EXPECT_THROW(roadnet::load_network(ss), ParseError);
  }
}

TEST(NetworkIo, FileErrors) {
  EXPECT_THROW(roadnet::load_network("/nonexistent/dir/net.csv"), Error);
  const roadnet::RoadNetwork net = testutil::line_network(1);
  EXPECT_THROW(roadnet::save_network(net, "/nonexistent/dir/net.csv"), Error);
}

TEST(DatasetIo, RoundTrip) {
  traj::TrajectoryDataset data;
  traj::Trajectory t1(TrajectoryId(10));
  t1.append({SegmentId(0), {0.5, 0.25}, 0.0, false});
  t1.append({SegmentId(1), {10.125, 0}, 1.5, true});
  traj::Trajectory t2(TrajectoryId(11));
  t2.append({SegmentId(2), {-3, 4}, 0.0, false});
  data.add(std::move(t1));
  data.add(std::move(t2));

  std::stringstream ss;
  traj::save_dataset(data, ss);
  const traj::TrajectoryDataset loaded = traj::load_dataset(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id(), TrajectoryId(10));
  EXPECT_EQ(loaded[0].size(), 2u);
  EXPECT_EQ(loaded[0].point(1).sid, SegmentId(1));
  EXPECT_TRUE(loaded[0].point(1).junction_point);
  EXPECT_FALSE(loaded[0].point(0).junction_point);
  EXPECT_NEAR(loaded[0].point(0).pos.x, 0.5, 1e-3);
  EXPECT_NEAR(loaded[0].point(1).t, 1.5, 1e-3);
  EXPECT_EQ(loaded[1].id(), TrajectoryId(11));
}

TEST(DatasetIo, FastParserMatchesReferenceOnGoldenFixture) {
  const std::string path = std::string(NEAT_TEST_DATA_DIR) + "/golden_trajectories.csv";
  std::ifstream fast_in(path);
  ASSERT_TRUE(fast_in) << "missing fixture " << path;
  std::ifstream ref_in(path);
  const traj::TrajectoryDataset fast = traj::load_dataset(fast_in);
  const traj::TrajectoryDataset reference = reference_load_dataset(ref_in);
  ASSERT_GT(fast.size(), 0u);
  expect_same_dataset(fast, reference);
}

TEST(DatasetIo, FastParserMatchesReferenceOnAwkwardCsv) {
  // CRLF line endings, blank lines, surrounding whitespace in numeric
  // fields, and quoted fields (which take the reader's RFC-4180 path).
  const std::string csv =
      "1,0,0,1.5,2.5,0.0,0\r\n"
      "\r\n"
      "1,1,0, 3.25 ,4.5,1.0,1\n"
      "\"2\",0,\"1\",7.125,8.0,0.5,0\n"
      "\n"
      "2,1,1,9.0,10.0,1.5,0\n";
  std::istringstream fast_in(csv);
  std::istringstream ref_in(csv);
  const traj::TrajectoryDataset fast = traj::load_dataset(fast_in);
  const traj::TrajectoryDataset reference = reference_load_dataset(ref_in);
  ASSERT_EQ(fast.size(), 2u);
  EXPECT_EQ(fast[0].point(1).pos.x, 3.25);
  EXPECT_EQ(fast[1].point(0).sid, SegmentId(1));
  expect_same_dataset(fast, reference);
}

TEST(DatasetIo, RejectsMalformedRows) {
  std::stringstream ss("1,0,0,0,0\n");  // 5 fields, needs 7
  EXPECT_THROW(traj::load_dataset(ss), ParseError);
  std::stringstream ss2("1,0,0,0,0,5.0,0\n1,1,0,0,0,4.0,0\n");  // time goes backward
  EXPECT_THROW(traj::load_dataset(ss2), ParseError);
}

// Loads `csv` and returns the ParseError's message ("" when none is thrown).
std::string dataset_parse_error(const std::string& csv) {
  std::stringstream ss(csv);
  try {
    static_cast<void>(traj::load_dataset(ss));
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(DatasetIo, RejectsNonFiniteValuesWithTheLine) {
  // A good first trajectory, then a bad value on the second trajectory's
  // first row (line 3), where no ordering check would catch it.
  const std::string head = "1,0,0,1.5,2.5,0.0,0\n1,1,0,1.5,3.5,1.0,0\n";
  const std::vector<std::string> bad_rows = {
      "2,0,0,nan,2.5,0.0,0\n",  "2,0,0,1.5,inf,0.0,0\n",   "2,0,0,1.5,2.5,nan,0\n",
      "2,0,0,-inf,2.5,0.0,0\n", "2,0,0,1.5,2.5,-nan,0\n", "2,0,0,1.5,2.5,infinity,0\n"};
  for (const std::string& row : bad_rows) {
    const std::string msg = dataset_parse_error(head + row);
    EXPECT_NE(msg.find("line 3"), std::string::npos) << row << msg;
    EXPECT_NE(msg.find("finite"), std::string::npos) << row << msg;
    // The same row with a quoted field takes the RFC-4180 reader path.
    const std::string quoted = "\"2\"" + row.substr(1);
    const std::string qmsg = dataset_parse_error(head + quoted);
    EXPECT_NE(qmsg.find("line 3"), std::string::npos) << quoted << qmsg;
    EXPECT_NE(qmsg.find("finite"), std::string::npos) << quoted << qmsg;
  }
  EXPECT_EQ(dataset_parse_error(head), "");
}

TEST(DatasetIo, RejectsOutOfRangeSegmentIdsWithTheLine) {
  // A segment id is bounded like a network id: 4294967357 must not wrap to
  // segment 61, and a negative id is not a segment either.
  const std::string head = "1,0,61,1.5,2.5,0.0,0\n";
  for (const std::string sid : {"4294967357", "-1", "16777216", "100000000000"}) {
    const std::string row = "1,1," + sid + ",1.5,3.5,1.0,0\n";
    const std::string quoted = "1,1,\"" + sid + "\",1.5,3.5,1.0,0\n";
    for (const std::string& csv : {head + row, head + quoted}) {
      const std::string msg = dataset_parse_error(csv);
      EXPECT_EQ(msg.rfind("line 2: ", 0), 0u) << csv << msg;
      EXPECT_NE(msg.find("is outside [0, 16777215]"), std::string::npos) << csv << msg;
    }
  }
  EXPECT_EQ(dataset_parse_error(head + "1,1,16777215,1.5,3.5,1.0,0\n"), "");
}

TEST(DatasetIo, EmptyStreamGivesEmptyDataset) {
  std::stringstream ss;
  EXPECT_TRUE(traj::load_dataset(ss).empty());
}

}  // namespace
}  // namespace neat
