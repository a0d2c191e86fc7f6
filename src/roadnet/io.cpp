#include "roadnet/io.h"

#include <cstdint>
#include <fstream>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/string_util.h"

namespace neat::roadnet {

void save_network(const RoadNetwork& net, std::ostream& out) {
  CsvWriter writer(out);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const Node& n = net.node(NodeId(static_cast<std::int32_t>(i)));
    writer.write_row({"node", std::to_string(i), format_fixed(n.pos.x, 6),
                      format_fixed(n.pos.y, 6)});
  }
  for (std::size_t i = 0; i < net.segment_count(); ++i) {
    const Segment& s = net.segment(SegmentId(static_cast<std::int32_t>(i)));
    writer.write_row({"segment", std::to_string(i), std::to_string(s.a.value()),
                      std::to_string(s.b.value()), format_fixed(s.length, 6),
                      format_fixed(s.speed_limit, 6), s.bidirectional ? "1" : "0"});
  }
}

void save_network(const RoadNetwork& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error(str_cat("cannot open '", path, "' for writing"));
  save_network(net, out);
}

std::int32_t parse_network_id(std::string_view field, const char* what) {
  const std::int64_t id = parse_int(field);
  if (id < 0 || id > kMaxNetworkId) {
    throw ParseError(str_cat(what, " ", id, " is outside [0, ", kMaxNetworkId, "]"));
  }
  return static_cast<std::int32_t>(id);
}

RoadNetwork load_network(std::istream& in) {
  std::vector<Node> nodes;
  std::vector<Segment> segments;
  for_each_csv_row(in, [&](const std::vector<std::string_view>& row) {
    if (row[0] == "node") {
      if (row.size() != 4) throw ParseError("node row needs 4 fields");
      const auto id = static_cast<std::size_t>(parse_network_id(row[1], "node id"));
      const Node node{{parse_double(row[2]), parse_double(row[3])}};
      if (nodes.size() <= id) nodes.resize(id + 1);
      nodes[id] = node;
    } else if (row[0] == "segment") {
      if (row.size() != 7) throw ParseError("segment row needs 7 fields");
      const auto id = static_cast<std::size_t>(parse_network_id(row[1], "segment id"));
      Segment s;
      s.a = NodeId(parse_network_id(row[2], "endpoint node id"));
      s.b = NodeId(parse_network_id(row[3], "endpoint node id"));
      s.length = parse_double(row[4]);
      s.speed_limit = parse_double(row[5]);
      s.bidirectional = parse_int(row[6]) != 0;
      if (segments.size() <= id) segments.resize(id + 1);
      segments[id] = s;
    } else {
      throw ParseError(str_cat("unknown row kind '", row[0], "'"));
    }
  });
  // Serialization rounds coordinates and lengths independently, so a stored
  // length can undercut the straight-line distance recomputed from rounded
  // coordinates by a hair. Clamp within a strict tolerance; anything larger
  // is genuinely inconsistent data.
  constexpr double kRoundingTolerance = 1e-2;
  for (Segment& s : segments) {
    if (!s.a.valid() || !s.b.valid()) continue;
    const auto ai = static_cast<std::size_t>(s.a.value());
    const auto bi = static_cast<std::size_t>(s.b.value());
    if (ai >= nodes.size() || bi >= nodes.size()) continue;
    const double straight = distance(nodes[ai].pos, nodes[bi].pos);
    if (s.length < straight && s.length >= straight - kRoundingTolerance) {
      s.length = straight;
    }
  }
  try {
    return RoadNetwork(std::move(nodes), std::move(segments));
  } catch (const PreconditionError& e) {
    throw ParseError(str_cat("inconsistent network file: ", e.what()));
  }
}

RoadNetwork load_network(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(str_cat("cannot open '", path, "' for reading"));
  return load_network(in);
}

}  // namespace neat::roadnet
