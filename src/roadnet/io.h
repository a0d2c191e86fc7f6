// CSV persistence for road networks.
//
// Format (one file):
//   node,<id>,<x>,<y>
//   segment,<id>,<a>,<b>,<length>,<speed>,<bidirectional 0|1>
// Rows may appear in any order but ids must be dense and consistent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "roadnet/road_network.h"

namespace neat::roadnet {

/// Largest node or segment id a network file may use (2^24 - 1). Ids index
/// dense arrays, so the cap bounds what a single row can make the loader
/// allocate; it is far above any city-scale network.
inline constexpr std::int64_t kMaxNetworkId = (std::int64_t{1} << 24) - 1;

/// Parses a node or segment id from a CSV field, throwing neat::ParseError
/// for one outside [0, kMaxNetworkId] before it can size an array or be
/// truncated; `what` names the id in the message. Network, trajectory and
/// snapshot files all read their ids through it.
[[nodiscard]] std::int32_t parse_network_id(std::string_view field, const char* what);

/// Writes the network to a stream in the CSV format above.
void save_network(const RoadNetwork& net, std::ostream& out);

/// Writes the network to a file. Throws neat::Error when the file cannot be
/// opened.
void save_network(const RoadNetwork& net, const std::string& path);

/// Reads a network from a stream. Throws neat::ParseError, naming the line,
/// on malformed data, including a node, segment or endpoint id that is
/// negative or above kMaxNetworkId.
[[nodiscard]] RoadNetwork load_network(std::istream& in);

/// Reads a network from a file. Throws neat::Error when the file cannot be
/// opened and neat::ParseError on malformed data.
[[nodiscard]] RoadNetwork load_network(const std::string& path);

}  // namespace neat::roadnet
