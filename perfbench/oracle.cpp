#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Distances are sums of lengths stored with six decimals; two correct
/// answers can differ by far less than this.
constexpr double kRoundingM = 0.01;

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) out.push_back(field);
  return out;
}

struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
  std::vector<std::size_t> parent;
};

/// Eq. 5 of the paper: each endpoint of one route to the nearer endpoint
/// of the other, worst case over both routes and both directions.
double endpoint_hausdorff(double d11, double d12, double d21, double d22) {
  const double forward = std::max(std::min(d11, d12), std::min(d21, d22));
  const double backward = std::max(std::min(d11, d21), std::min(d12, d22));
  return std::max(forward, backward);
}

}  // namespace

Graph Graph::load_csv(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot read network " + path);
  Graph g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split_csv(line);
    if (f[0] == "node") {
      require(f.size() == 4, "bad node row in " + path);
      const auto id = static_cast<std::size_t>(std::stoll(f[1]));
      if (g.x.size() <= id) {
        g.x.resize(id + 1);
        g.y.resize(id + 1);
      }
      g.x[id] = std::stod(f[2]);
      g.y[id] = std::stod(f[3]);
    } else if (f[0] == "segment") {
      require(f.size() == 7, "bad segment row in " + path);
      const auto id = static_cast<std::size_t>(std::stoll(f[1]));
      if (g.segments.size() <= id) g.segments.resize(id + 1);
      g.segments[id] = {std::stoi(f[2]), std::stoi(f[3]), std::stod(f[4]), f[6] != "0"};
    } else {
      require(false, "unknown row kind in " + path);
    }
  }
  g.incident.resize(g.x.size());
  for (std::size_t s = 0; s < g.segments.size(); ++s) {
    const Segment& seg = g.segments[s];
    require(seg.a >= 0 && seg.b >= 0 && static_cast<std::size_t>(seg.a) < g.x.size() &&
                static_cast<std::size_t>(seg.b) < g.x.size(),
            "segment with unknown node in " + path);
    g.incident[static_cast<std::size_t>(seg.a)].push_back({static_cast<int>(s), seg.b});
    g.incident[static_cast<std::size_t>(seg.b)].push_back({static_cast<int>(s), seg.a});
  }
  return g;
}

Dijkstra::Dijkstra(const Graph& g) : g_(g), dist_(g.node_count(), kInf) {}

void Dijkstra::run(int source, bool directed, double bound) {
  for (const auto& [node, d] : reached_) dist_[static_cast<std::size_t>(node)] = kInf;
  reached_.clear();
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<int> touched;
  dist_[static_cast<std::size_t>(source)] = 0.0;
  touched.push_back(source);
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist_[static_cast<std::size_t>(u)]) continue;
    if (d > bound) break;
    reached_.push_back({u, d});
    for (const auto& [sid, v] : g_.incident[static_cast<std::size_t>(u)]) {
      const Graph::Segment& seg = g_.segments[static_cast<std::size_t>(sid)];
      if (directed && !seg.bidirectional && seg.a != u) continue;
      const double nd = d + seg.length;
      if (nd < dist_[static_cast<std::size_t>(v)]) {
        if (dist_[static_cast<std::size_t>(v)] == kInf) touched.push_back(v);
        dist_[static_cast<std::size_t>(v)] = nd;
        heap.push({nd, v});
      }
    }
  }
  // Keep only settled distances: frontier entries past the bound are reset.
  for (const int v : touched) dist_[static_cast<std::size_t>(v)] = kInf;
  for (const auto& [node, d] : reached_) dist_[static_cast<std::size_t>(node)] = d;
}

double Dijkstra::dist(int node) const { return dist_[static_cast<std::size_t>(node)]; }

double EndpointDistances::get(int from, int to) {
  auto it = from_.find(from);
  if (it == from_.end()) {
    dijkstra_.run(from, /*directed=*/false, bound_);
    std::unordered_map<int, double> row;
    row.reserve(dijkstra_.reached().size());
    for (const auto& [node, d] : dijkstra_.reached()) row.emplace(node, d);
    it = from_.emplace(from, std::move(row)).first;
  }
  const auto hit = it->second.find(to);
  return hit == it->second.end() ? kInf : hit->second;
}

void check_flows(const Graph& g, const std::vector<FlowView>& flows, double epsilon,
                 double min_card, EndpointDistances& dist, Outcome& out) {
  const std::uint64_t mismatches_before = out.mismatches;
  char msg[200];
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const FlowView& flow = flows[f];
    if (flow.route.empty() || flow.junctions.size() != flow.route.size() + 1) {
      std::snprintf(msg, sizeof(msg), "flow %zu: %zu segments but %zu junctions", f,
                    flow.route.size(), flow.junctions.size());
      out.mismatch(msg);
      continue;
    }
    double length = 0.0;
    for (std::size_t j = 0; j < flow.route.size(); ++j) {
      const int sid = flow.route[j];
      if (sid < 0 || static_cast<std::size_t>(sid) >= g.segments.size()) {
        std::snprintf(msg, sizeof(msg), "flow %zu: unknown segment %d", f, sid);
        out.mismatch(msg);
        break;
      }
      const Graph::Segment& seg = g.segments[static_cast<std::size_t>(sid)];
      const int u = flow.junctions[j];
      const int v = flow.junctions[j + 1];
      if (!((seg.a == u && seg.b == v) || (seg.a == v && seg.b == u))) {
        std::snprintf(msg, sizeof(msg),
                      "flow %zu: segment %d at position %zu does not join junctions %d and %d",
                      f, sid, j, u, v);
        out.mismatch(msg);
        break;
      }
      length += seg.length;
    }
    // The CLI prints route lengths with one decimal.
    if (std::abs(length - flow.route_length) > 0.06) {
      std::snprintf(msg, sizeof(msg), "flow %zu: route length %.3f but segments sum to %.3f", f,
                    flow.route_length, length);
      out.mismatch(msg);
    }
    if (static_cast<double>(flow.cardinality) < min_card - 0.005) {
      std::snprintf(msg, sizeof(msg), "flow %zu: cardinality %d below minCard %.2f", f,
                    flow.cardinality, min_card);
      out.mismatch(msg);
    }
    if (flow.final_cluster < 0) {
      std::snprintf(msg, sizeof(msg), "flow %zu: in no final cluster", f);
      out.mismatch(msg);
    }
  }
  if (out.mismatches > mismatches_before) return;

  // Components of the epsilon graph: `sure` joins pairs clearly within
  // epsilon, `possible` also those within rounding distance of it. The
  // program's clusters must be unions of sure components and lie inside
  // possible components.
  const std::size_t n = flows.size();
  UnionFind sure(n), possible(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int a1 = flows[i].junctions.front(), a2 = flows[i].junctions.back();
    for (std::size_t j = i + 1; j < n; ++j) {
      const int b1 = flows[j].junctions.front(), b2 = flows[j].junctions.back();
      const double h = endpoint_hausdorff(dist.get(a1, b1), dist.get(a1, b2),
                                          dist.get(a2, b1), dist.get(a2, b2));
      if (h <= epsilon + kRoundingM) possible.unite(i, j);
      if (h <= epsilon - kRoundingM) sure.unite(i, j);
    }
  }
  std::unordered_map<int, std::size_t> cluster_root;
  std::unordered_map<std::size_t, int> sure_cluster;
  for (std::size_t i = 0; i < n; ++i) {
    const int c = flows[i].final_cluster;
    const auto [it, fresh] = cluster_root.emplace(c, possible.find(i));
    if (!fresh && it->second != possible.find(i)) {
      std::snprintf(msg, sizeof(msg),
                    "final cluster %d joins flows farther apart than epsilon %.1f m", c,
                    epsilon);
      out.mismatch(msg);
      return;
    }
    const auto [jt, first] = sure_cluster.emplace(sure.find(i), c);
    if (!first && jt->second != c) {
      std::snprintf(msg, sizeof(msg),
                    "flows within epsilon %.1f m split across final clusters %d and %d",
                    epsilon, jt->second, c);
      out.mismatch(msg);
      return;
    }
  }
}

bool parse_cli_output(const std::string& report, const std::string& flows_csv, CliOutput& out,
                      std::string& error) {
  out = CliOutput{};
  bool phase1 = false;
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t a = 0, b = 0;
    int seg = 0;
    double card = 0.0;
    if (std::sscanf(line.c_str(), "phase 1: %zu t-fragments in %zu base clusters", &a, &b) == 2) {
      out.fragments = a;
      out.base_clusters = b;
      phase1 = true;
    } else if (std::sscanf(line.c_str(), "  dense-core: segment %d (density %zu, %zu", &seg, &a,
                           &b) == 3) {
      out.dense_segment = seg;
      out.dense_density = a;
      out.dense_cardinality = b;
    } else if (std::sscanf(line.c_str(), "phase 2: %zu flow clusters kept (minCard %lf", &a,
                           &card) == 2) {
      out.flow_count = a;
      out.min_card = card;
    } else if (std::sscanf(line.c_str(), "phase 3: %zu final clusters", &a) == 1) {
      out.final_clusters = a;
    }
  }
  if (!phase1) {
    error = "report has no phase 1 line";
    return false;
  }
  if (flows_csv.empty()) return true;

  std::ifstream in(flows_csv);
  if (!in || !std::getline(in, line)) {
    error = "cannot read " + flows_csv;
    return false;
  }
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split_csv(line);
    if (f.size() != 9) {
      error = "flows CSV row with " + std::to_string(f.size()) + " fields";
      return false;
    }
    try {
      const auto id = static_cast<std::size_t>(std::stoll(f[0]));
      if (id != out.flows.size() && id + 1 != out.flows.size()) {
        error = "flows CSV rows out of order";
        return false;
      }
      if (id == out.flows.size()) {
        FlowView flow;
        flow.final_cluster = std::stoi(f[1]);
        flow.cardinality = std::stoi(f[2]);
        flow.route_length = std::stod(f[3]);
        out.flows.push_back(flow);
      }
      FlowView& flow = out.flows.back();
      if (f[5] != "-") flow.route.push_back(std::stoi(f[5]));
      flow.junctions.push_back(std::stoi(f[6]));
    } catch (const std::exception&) {
      error = "unparsable flows CSV row: " + line;
      return false;
    }
  }
  return true;
}

RunCounts count_segment_runs(const std::string& path, std::size_t segment_count) {
  std::ifstream in(path, std::ios::binary);
  require(static_cast<bool>(in), "cannot read " + path);
  // Header: magic u64, version u32, flags u32, trajectories u64, points u64,
  // then the offsets of the trid, index, t, seg, x, y and flags sections.
  unsigned char header[88];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  require(static_cast<bool>(in), "short columnar header in " + path);
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, header + off, sizeof(v));
    return v;
  };
  require(std::memcmp(header, "NEATCOL\1", 8) == 0, "bad columnar magic in " + path);
  const std::uint64_t trajectories = u64_at(16);
  const std::uint64_t points = u64_at(24);
  const std::uint64_t off_index = u64_at(40);
  const std::uint64_t off_seg = u64_at(56);

  std::vector<std::uint64_t> index(trajectories + 1);
  in.seekg(static_cast<std::streamoff>(off_index));
  in.read(reinterpret_cast<char*>(index.data()),
          static_cast<std::streamsize>(index.size() * sizeof(std::uint64_t)));
  std::vector<std::int32_t> seg(points);
  in.seekg(static_cast<std::streamoff>(off_seg));
  in.read(reinterpret_cast<char*>(seg.data()),
          static_cast<std::streamsize>(seg.size() * sizeof(std::int32_t)));
  require(static_cast<bool>(in) && index.front() == 0 && index.back() == points,
          "inconsistent columnar index in " + path);

  RunCounts rc;
  rc.density.assign(segment_count, 0);
  rc.cardinality.assign(segment_count, 0);
  std::vector<std::size_t> last_seen(segment_count, static_cast<std::size_t>(-1));
  for (std::size_t t = 0; t < trajectories; ++t) {
    for (std::uint64_t p = index[t]; p < index[t + 1]; ++p) {
      if (p > index[t] && seg[p] == seg[p - 1]) continue;
      const auto s = static_cast<std::size_t>(seg[p]);
      require(s < segment_count, "columnar sample on unknown segment in " + path);
      ++rc.density[s];
      ++rc.runs;
      if (last_seen[s] != t) {
        last_seen[s] = t;
        ++rc.cardinality[s];
      }
    }
  }
  for (const std::size_t d : rc.density) rc.segments_used += d > 0 ? 1 : 0;
  return rc;
}

void check_base_clusters(const CliOutput& cli, const RunCounts& runs, Outcome& out) {
  char msg[200];
  if (cli.fragments != runs.runs) {
    std::snprintf(msg, sizeof(msg), "%zu t-fragments reported, %zu segment runs in the file",
                  cli.fragments, runs.runs);
    out.mismatch(msg);
  }
  if (cli.base_clusters != runs.segments_used) {
    std::snprintf(msg, sizeof(msg), "%zu base clusters reported, %zu segments visited",
                  cli.base_clusters, runs.segments_used);
    out.mismatch(msg);
  }
  const std::size_t max_density = *std::max_element(runs.density.begin(), runs.density.end());
  const auto s = static_cast<std::size_t>(cli.dense_segment);
  if (cli.dense_segment < 0 || s >= runs.density.size() || runs.density[s] != cli.dense_density ||
      runs.cardinality[s] != cli.dense_cardinality || cli.dense_density != max_density) {
    std::snprintf(msg, sizeof(msg),
                  "dense core segment %d (density %zu, %zu trajectories) disagrees with the "
                  "run counts (max density %zu)",
                  cli.dense_segment, cli.dense_density, cli.dense_cardinality, max_density);
    out.mismatch(msg);
  }
}

}  // namespace perfbench
