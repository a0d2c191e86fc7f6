// ingest_window and serve_mixed: the serving stack driven in-process over
// the generated SJ network. ingest_window times windowed re-clustering
// through serve::IngestService; serve_mixed drives the /v1/* plane of
// net::QueryService on net::HttpServer over loopback while a writer keeps
// publishing snapshots.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "core/clusterer.h"
#include "core/incremental.h"
#include "core/parallel_refiner.h"
#include "http_client.h"
#include "json.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "oracle.h"
#include "roadnet/ch_engine.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "serve/ingest_service.h"
#include "serve/query_engine.h"
#include "sim/mobility_simulator.h"
#include "sim/trip_planner.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Input sizes and serving set-up (see README.md, "Workloads").
constexpr double kSjScale = 1.0;           ///< The SJ preset at full size.
constexpr std::size_t kBatchObjects = 300;  ///< Simulated objects per ingest batch.
constexpr std::size_t kWindow = 8;          ///< Sliding window, in batches.
constexpr std::size_t kPool = 12;           ///< Distinct batches, cycled with fresh ids.
constexpr double kEpsilon = 2000.0;         ///< neat_server_sim's Phase 3 epsilon.
constexpr std::size_t kTracedBatches = 4;   ///< Batches timed in the traced round.
constexpr std::size_t kSnapshotBatches = 8;  ///< Batches behind the served snapshot.
constexpr double kOfferedRate = 1000.0;     ///< Open-loop requests per second.
constexpr int kClosedClients = 2;           ///< Connections of the closed loop.
constexpr double kOpenShare = 0.6;          ///< Share of each epoch spent in the open loop.
constexpr int kEpochs = 9;                  ///< Load epochs per run; metrics take the median.
constexpr double kPublishPeriodS = 0.1;     ///< Writer cadence.
constexpr std::size_t kTracedRequests = 1000;  ///< Requests per traced sequence.
constexpr double kTracedOpenS = 2.0;        ///< Open loop of the traced round.

/// Distances in responses carry three decimals.
constexpr double kResponseTolerance = 2e-3;

struct SjWorld {
  neat::roadnet::RoadNetwork net;
  std::string net_csv;
  std::vector<neat::traj::TrajectoryDataset> pool;

  void print() const {
    std::size_t points = 0;
    for (const neat::traj::TrajectoryDataset& b : pool) points += b.total_points();
    std::printf("inputs: %s (%zu segments), %zu batches of %zu objects (%zu points)\n",
                net_csv.c_str(), net.segment_count(), pool.size(), kBatchObjects, points);
  }
};

std::unique_ptr<SjWorld> make_world(const Args& args, std::size_t batches) {
  auto w = std::make_unique<SjWorld>();
  w->net = neat::roadnet::make_named_city("SJ", kSjScale);
  w->net_csv = args.work_dir + "/sj_network.csv";
  neat::roadnet::save_network(w->net, w->net_csv);
  // The SJ simulation settings of the figure benches (eval::ExperimentEnv).
  neat::sim::SimConfig cfg = neat::sim::default_config(w->net, 3, 3);
  cfg.sample_period_s = 2.75;
  cfg.hotspot_radius_m = 800.0;
  const neat::sim::MobilitySimulator simulator(w->net, cfg);
  for (std::size_t b = 0; b < batches; ++b) {
    w->pool.push_back(simulator.generate(kBatchObjects, args.seed * 1000 + b));
  }
  return w;
}

/// Batch number `k`: pool entry k mod kPool with ids k * kBatchObjects + i,
/// so ids stay unique across the whole run and name their batch.
neat::traj::TrajectoryDataset batch(const SjWorld& w, std::size_t k) {
  const neat::traj::TrajectoryDataset& src = w.pool[k % w.pool.size()];
  neat::traj::TrajectoryDataset out;
  out.reserve(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    out.add(neat::traj::Trajectory(
        neat::TrajectoryId(static_cast<std::int64_t>(k * kBatchObjects + i)), src[i].points()));
  }
  return out;
}

/// neat_server_sim's configuration plus four refine threads.
neat::Config server_config() {
  neat::Config cfg;
  cfg.refine.epsilon = kEpsilon;
  cfg.refine.distance_engine = neat::DistanceEngine::kDijkstra;
  cfg.refine.use_elb = true;
  cfg.refine.threads = 4;
  cfg.phase1_threads = 2;
  return cfg;
}

std::vector<FlowView> flow_views(const neat::serve::ClusterSnapshot& snap) {
  std::vector<FlowView> views(snap.flows().size());
  for (std::size_t f = 0; f < views.size(); ++f) {
    const neat::FlowCluster& flow = snap.flows()[f];
    for (const neat::SegmentId s : flow.route) views[f].route.push_back(s.value());
    for (const neat::NodeId n : flow.junctions) views[f].junctions.push_back(n.value());
    views[f].route_length = flow.route_length;
    views[f].cardinality = flow.cardinality();
    views[f].final_cluster = snap.final_cluster_of(static_cast<std::uint32_t>(f));
  }
  return views;
}

/// Checks a windowed snapshot: the flow oracles, and every participant
/// belongs to one of the last kWindow batches up to batch `last`.
void check_window_snapshot(const Graph& g, const neat::serve::ClusterSnapshot& snap,
                           std::size_t last, EndpointDistances& dist, Outcome& out) {
  check_flows(g, flow_views(snap), kEpsilon, 1.0, dist, out);
  const std::size_t first = last + 1 >= kWindow ? last + 1 - kWindow : 0;
  for (const neat::FlowCluster& flow : snap.flows()) {
    for (const neat::TrajectoryId id : flow.participants) {
      const auto b = static_cast<std::size_t>(id.value()) / kBatchObjects;
      if (b < first || b > last) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "snapshot after batch %zu holds trajectory %lld of batch %zu, outside "
                      "the %zu-batch window",
                      last, static_cast<long long>(id.value()), b, kWindow);
        out.mismatch(msg);
        return;
      }
    }
  }
}

/// The ingest service with its store, rebuilt from scratch by each set-up.
struct IngestStack {
  neat::serve::SnapshotStore store;
  neat::serve::Metrics metrics{nullptr};
  std::unique_ptr<neat::serve::IngestService> service;

  IngestStack(const SjWorld& w, std::size_t window) {
    neat::serve::IngestOptions opts;
    opts.queue_capacity = 4;
    opts.incremental.window_batches = window;
    service = std::make_unique<neat::serve::IngestService>(w.net, server_config(), store,
                                                           metrics, opts);
  }
  /// Submits one batch and waits until its snapshot is published; returns
  /// the seconds from submit to publish, or a negative value on failure.
  double publish(neat::traj::TrajectoryDataset b) {
    const std::uint64_t before = store.version();
    const double start = now_s();
    service->submit(std::move(b));
    service->flush();
    const double elapsed = now_s() - start;
    return store.version() == before + 1 ? elapsed : -1.0;
  }
};

// --- serve_mixed -------------------------------------------------------------

enum class Endpoint { kNearest, kSegment, kTopk, kRoute, kTable };
constexpr const char* kEndpointNames[] = {"nearest", "segment", "topk", "route", "table"};

struct Request {
  Endpoint endpoint{Endpoint::kNearest};
  std::string target;  ///< Path and query string.
  double x{0}, y{0};
  int sid{0}, k{0}, from{0}, to{0};
  std::vector<int> sources, targets;
};

/// The distinct requests and the seeded sequence the loops replay.
struct RequestMix {
  std::vector<Request> requests;
  std::vector<std::size_t> sequence;
};

RequestMix make_requests(const Args& args, const SjWorld& w, const Graph& g,
                         const neat::serve::ClusterSnapshot& snap) {
  std::mt19937_64 rng(args.seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  const auto& flows = snap.flows();
  const auto flow_junction = [&]() {
    const neat::FlowCluster& f = flows[pick(flows.size())];
    return f.junctions[pick(f.junctions.size())].value();
  };
  RequestMix mix;
  char buf[256];
  for (int i = 0; i < 40; ++i) {  // points near a flow: a 200 answer exists
    const neat::FlowCluster& f = flows[pick(flows.size())];
    const neat::roadnet::Segment& s = w.net.segment(f.route[pick(f.route.size())]);
    Request r;
    r.endpoint = Endpoint::kNearest;
    r.x = (w.net.node(s.a).pos.x + w.net.node(s.b).pos.x) / 2 +
          std::uniform_real_distribution<double>(-100, 100)(rng);
    r.y = (w.net.node(s.a).pos.y + w.net.node(s.b).pos.y) / 2 +
          std::uniform_real_distribution<double>(-100, 100)(rng);
    std::snprintf(buf, sizeof(buf), "/v1/nearest?x=%.2f&y=%.2f&radius=500", r.x, r.y);
    r.x = std::strtod(std::strchr(buf, '=') + 1, nullptr);  // the values the server parses
    r.y = std::strtod(std::strstr(buf, "&y=") + 3, nullptr);
    r.target = buf;
    mix.requests.push_back(r);
  }
  for (int i = 0; i < 40; ++i) {
    const neat::FlowCluster& f = flows[pick(flows.size())];
    Request r;
    r.endpoint = Endpoint::kSegment;
    r.sid = f.route[pick(f.route.size())].value();
    r.target = "/v1/segment?sid=" + std::to_string(r.sid);
    mix.requests.push_back(r);
  }
  for (const int k : {1, 5, 10, 50}) {
    Request r;
    r.endpoint = Endpoint::kTopk;
    r.k = k;
    r.target = "/v1/topk?k=" + std::to_string(k);
    mix.requests.push_back(r);
  }
  Dijkstra dijkstra(g);
  for (int i = 0; i < 24;) {  // reachable junction pairs: a 200 answer exists
    Request r;
    r.endpoint = Endpoint::kRoute;
    r.from = flow_junction();
    r.to = flow_junction();
    dijkstra.run(r.from, /*directed=*/true, std::numeric_limits<double>::infinity());
    if (r.from == r.to || !std::isfinite(dijkstra.dist(r.to))) continue;
    r.target = "/v1/route?from=" + std::to_string(r.from) + "&to=" + std::to_string(r.to);
    mix.requests.push_back(r);
    ++i;
  }
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.endpoint = Endpoint::kTable;
    std::string src, dst;
    for (int j = 0; j < 4; ++j) {
      r.sources.push_back(flow_junction());
      r.targets.push_back(flow_junction());
      src += (j ? "," : "") + std::to_string(r.sources.back());
      dst += (j ? "," : "") + std::to_string(r.targets.back());
    }
    r.target = "/v1/table?sources=" + src + "&targets=" + dst;
    mix.requests.push_back(r);
  }
  // Endpoint shares of the sequence: nearest 30%, segment 25%, topk 20%,
  // route 15%, table 10%.
  std::vector<std::vector<std::size_t>> by_endpoint(5);
  for (std::size_t i = 0; i < mix.requests.size(); ++i) {
    by_endpoint[static_cast<std::size_t>(mix.requests[i].endpoint)].push_back(i);
  }
  std::discrete_distribution<int> share({30, 25, 20, 15, 10});
  for (int i = 0; i < 4096; ++i) {
    const auto& group = by_endpoint[static_cast<std::size_t>(share(rng))];
    mix.sequence.push_back(group[pick(group.size())]);
  }
  return mix;
}

/// Expected answers by brute force over the snapshot and the benchmark's
/// Dijkstra; memoised per distinct request.
class ResponseOracle {
 public:
  ResponseOracle(const Graph& g, const neat::serve::ClusterSnapshot& snap)
      : g_(g), snap_(snap), dijkstra_(g) {}

  /// Returns "" when the body is a correct answer to `r`, else what is wrong.
  std::string check(const Request& r, const std::string& body) {
    Json j;
    if (!Json::parse(body, j) || j.kind != Json::Kind::kObject) return "unparsable body";
    switch (r.endpoint) {
      case Endpoint::kNearest: return check_nearest(r, j);
      case Endpoint::kSegment: return check_segment(r, j);
      case Endpoint::kTopk: return check_topk(r, j);
      case Endpoint::kRoute: return check_route(r, j);
      case Endpoint::kTable: return check_table(r, j);
    }
    return "unknown endpoint";
  }

 private:
  double point_segment(double px, double py, int sid) const {
    const Graph::Segment& s = g_.segments[static_cast<std::size_t>(sid)];
    const double ax = g_.x[static_cast<std::size_t>(s.a)], ay = g_.y[static_cast<std::size_t>(s.a)];
    const double bx = g_.x[static_cast<std::size_t>(s.b)], by = g_.y[static_cast<std::size_t>(s.b)];
    const double dx = bx - ax, dy = by - ay;
    const double len2 = dx * dx + dy * dy;
    const double t = len2 > 0 ? std::clamp(((px - ax) * dx + (py - ay) * dy) / len2, 0.0, 1.0) : 0.0;
    return std::hypot(px - (ax + t * dx), py - (ay + t * dy));
  }

  std::vector<int> flows_on(int sid) const {
    std::vector<int> out;
    for (std::size_t f = 0; f < snap_.flows().size(); ++f) {
      for (const neat::SegmentId s : snap_.flows()[f].route) {
        if (s.value() == sid) out.push_back(static_cast<int>(f));
      }
    }
    return out;
  }

  std::string check_nearest(const Request& r, const Json& j) {
    double best = std::numeric_limits<double>::infinity();
    for (const neat::FlowCluster& f : snap_.flows()) {
      for (const neat::SegmentId s : f.route) best = std::min(best, point_segment(r.x, r.y, s.value()));
    }
    if (best > 500.0) return "no flow within the radius, yet answered";
    const int sid = static_cast<int>(j["segment"].number);
    const int flow = static_cast<int>(j["flow"].number);
    if (std::abs(j["distance_m"].number - best) > kResponseTolerance) return "not the nearest distance";
    if (sid < 0 || static_cast<std::size_t>(sid) >= g_.segments.size() ||
        std::abs(point_segment(r.x, r.y, sid) - best) > kResponseTolerance) {
      return "segment is not a nearest flow segment";
    }
    const std::vector<int> on = flows_on(sid);
    if (std::find(on.begin(), on.end(), flow) == on.end()) return "flow does not use the segment";
    for (const int f : on) {
      if (snap_.flows()[static_cast<std::size_t>(f)].cardinality() >
          snap_.flows()[static_cast<std::size_t>(flow)].cardinality()) {
        return "a denser flow uses the segment";
      }
    }
    if (static_cast<int>(j["cardinality"].number) !=
            snap_.flows()[static_cast<std::size_t>(flow)].cardinality() ||
        static_cast<int>(j["final_cluster"].number) !=
            snap_.final_cluster_of(static_cast<std::uint32_t>(flow))) {
      return "flow attributes differ from the snapshot";
    }
    return "";
  }

  std::string check_segment(const Request& r, const Json& j) {
    const std::vector<int> expected = flows_on(r.sid);
    const Json& got = j["flows"];
    if (got.items.size() != expected.size()) return "wrong number of flows";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (static_cast<int>(got.items[i].number) != expected[i]) return "wrong flow list";
    }
    return "";
  }

  std::string check_topk(const Request& r, const Json& j) {
    const auto& flows = snap_.flows();
    std::vector<std::size_t> order(flows.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (flows[a].cardinality() != flows[b].cardinality()) {
        return flows[a].cardinality() > flows[b].cardinality();
      }
      if (flows[a].route_length != flows[b].route_length) {
        return flows[a].route_length > flows[b].route_length;
      }
      return a < b;
    });
    const std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(r.k), order.size());
    const Json& got = j["flows"];
    if (got.items.size() != n) return "wrong number of flows";
    for (std::size_t i = 0; i < n; ++i) {
      const Json& item = got.items[i];
      const std::size_t f = order[i];
      if (static_cast<std::size_t>(item["flow"].number) != f ||
          static_cast<int>(item["cardinality"].number) != flows[f].cardinality() ||
          std::abs(item["route_length_m"].number - flows[f].route_length) > kResponseTolerance ||
          static_cast<int>(item["final_cluster"].number) !=
              snap_.final_cluster_of(static_cast<std::uint32_t>(f))) {
        return "wrong ranking";
      }
    }
    return "";
  }

  std::string check_route(const Request& r, const Json& j) {
    dijkstra_.run(r.from, /*directed=*/true, std::numeric_limits<double>::infinity());
    const double expected = dijkstra_.dist(r.to);
    if (std::abs(j["length_m"].number - expected) > kResponseTolerance) return "not a shortest route";
    const Json& segs = j["segments"];
    const Json& nodes = j["nodes"];
    if (nodes.items.size() != segs.items.size() + 1 ||
        static_cast<int>(nodes.items.front().number) != r.from ||
        static_cast<int>(nodes.items.back().number) != r.to) {
      return "route does not join the requested junctions";
    }
    double length = 0.0;
    for (std::size_t i = 0; i < segs.items.size(); ++i) {
      const auto sid = static_cast<std::size_t>(segs.items[i].number);
      if (sid >= g_.segments.size()) return "unknown segment";
      const Graph::Segment& s = g_.segments[sid];
      const int u = static_cast<int>(nodes.items[i].number);
      const int v = static_cast<int>(nodes.items[i + 1].number);
      const bool forward = s.a == u && s.b == v;
      if (!forward && !(s.bidirectional && s.b == u && s.a == v)) return "route breaks its chain";
      length += s.length;
    }
    if (std::abs(length - expected) > kResponseTolerance) return "segments do not sum to the length";
    return "";
  }

  std::string check_table(const Request& r, const Json& j) {
    const Json& rows = j["distances_m"];
    if (rows.items.size() != r.sources.size()) return "wrong row count";
    for (std::size_t i = 0; i < r.sources.size(); ++i) {
      dijkstra_.run(r.sources[i], /*directed=*/false, std::numeric_limits<double>::infinity());
      if (rows.items[i].items.size() != r.targets.size()) return "wrong column count";
      for (std::size_t k = 0; k < r.targets.size(); ++k) {
        const double expected = dijkstra_.dist(r.targets[k]);
        const Json& cell = rows.items[i].items[k];
        if (cell.is_null() ? std::isfinite(expected)
                           : std::abs(cell.number - expected) > kResponseTolerance) {
          return "wrong table cell";
        }
      }
    }
    return "";
  }

  const Graph& g_;
  const neat::serve::ClusterSnapshot& snap_;
  Dijkstra dijkstra_;
};

/// One answered request of a load loop.
struct Sample {
  std::size_t request{0};
  int code{0};  ///< 0 = transport error.
  double latency_s{0.0};
  double lateness_s{0.0};
};

/// What a load loop saw: one sample per request, and each distinct 200
/// body per request once (trace_id and snapshot_version, which differ on
/// every response, stripped), so memory stays bounded at any rate.
struct LoopLog {
  std::vector<Sample> samples;
  std::map<std::pair<std::size_t, std::string>, std::string> bodies;

  void record(Sample s, std::string body) {
    if (s.code == 200) {
      std::string key = body;
      for (const char* field : {"\"trace_id\":", "\"snapshot_version\":"}) {
        const std::size_t at = key.find(field);
        if (at != std::string::npos) key.erase(at, key.find_first_of(",}", at) - at);
      }
      bodies.try_emplace({s.request, std::move(key)}, std::move(body));
    }
    samples.push_back(s);
  }
  void merge(LoopLog&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    bodies.merge(other.bodies);
  }
};

/// The serving stack over one snapshot: store, query service, HTTP server
/// and the writer that republishes the snapshot at a fixed cadence.
class ServeStack {
 public:
  explicit ServeStack(const Args& args) {
    world_ = make_world(args, kSnapshotBatches);
    {
      IngestStack ingest(*world_, 0);
      for (std::size_t b = 0; b < kSnapshotBatches; ++b) {
        require(ingest.publish(batch(*world_, b)) >= 0.0, "snapshot batch failed");
      }
      snapshot_ = ingest.store.current();
    }
    require(snapshot_->flows().size() >= 100, "the served snapshot needs at least 100 flows");
    store_.publish(snapshot_);
    engine_ = std::make_unique<neat::serve::QueryEngine>(world_->net, store_, &metrics_);
    planner_ = std::make_unique<neat::sim::TripPlanner>(world_->net,
                                                        neat::roadnet::Metric::kDistance);
    service_ = std::make_unique<neat::net::QueryService>(world_->net, *engine_, planner_.get(),
                                                         registry_);
    neat::net::HttpServerOptions opts;
    opts.worker_threads = 2;
    server_ = std::make_unique<neat::net::HttpServer>(opts);
    service_->register_routes(*server_);
    server_->start();
  }
  ~ServeStack() {
    writer_stop_ = true;
    if (writer_.joinable()) writer_.join();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  void start_writer(SpanLog* log) {
    writer_stop_ = false;
    writer_ = std::thread([this, log] {
      try {
        write_until_stopped(log);
      } catch (const std::exception& e) {
        writer_error_ = e.what();
      }
    });
  }
  /// Stops the writer; throws if it failed.
  void stop_writer() {
    writer_stop_ = true;
    if (writer_.joinable()) writer_.join();
    require(writer_error_.empty(), "snapshot writer failed: " + writer_error_);
  }

  [[nodiscard]] const SjWorld& world() const { return *world_; }
  [[nodiscard]] const neat::serve::ClusterSnapshot& snapshot() const { return *snapshot_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const neat::net::QueryService& service() const { return *service_; }
  [[nodiscard]] const std::vector<double>& build_s() const { return build_s_; }
  [[nodiscard]] const std::vector<double>& publish_s() const { return publish_s_; }

 private:
  void write_until_stopped(SpanLog* log) {
    std::uint64_t version = store_.version();
    double next = now_s();
    while (!writer_stop_.load()) {
      next += kPublishPeriodS;
      std::shared_ptr<const neat::serve::ClusterSnapshot> snap;
      {
        const double start = now_s();
        std::unique_ptr<SpanLog::Scope> span;
        if (log != nullptr) span = std::make_unique<SpanLog::Scope>(*log, "serve.snapshot_build");
        snap = neat::serve::ClusterSnapshot::build(world_->net, snapshot_->flows(),
                                                   snapshot_->final_clusters(), ++version);
        build_s_.push_back(now_s() - start);
      }
      {
        const double start = now_s();
        std::unique_ptr<SpanLog::Scope> span;
        if (log != nullptr) span = std::make_unique<SpanLog::Scope>(*log, "serve.snapshot_publish");
        store_.publish(std::move(snap));
        publish_s_.push_back(now_s() - start);
      }
      while (!writer_stop_.load() && now_s() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  std::unique_ptr<SjWorld> world_;
  std::shared_ptr<const neat::serve::ClusterSnapshot> snapshot_;
  neat::obs::Registry registry_;
  neat::serve::SnapshotStore store_;
  neat::serve::Metrics metrics_{&registry_};
  std::unique_ptr<neat::serve::QueryEngine> engine_;
  std::unique_ptr<neat::sim::TripPlanner> planner_;
  std::unique_ptr<neat::net::QueryService> service_;
  std::unique_ptr<neat::net::HttpServer> server_;  ///< After what its handlers use.
  std::atomic<bool> writer_stop_{false};
  std::vector<double> build_s_, publish_s_;
  std::string writer_error_;  ///< Set by the writer thread, read after join.
  std::thread writer_;
};

/// Sends every distinct request once: builds the table hierarchy and the
/// planner's trees before anything is timed.
void warm_up(const ServeStack& stack, const RequestMix& mix) {
  HttpClient client(stack.port());
  for (const Request& r : mix.requests) {
    HttpClient::Response resp;
    require(client.get(r.target, resp) && resp.code == 200,
            "warm-up request failed: " + r.target);
  }
}

/// Open loop: request i is due at start + i / rate and is timed from then.
/// One generator on the calling thread; it spins rather than sleeps, so a
/// late wake-up of its own never counts as server latency, and a slow
/// response delays the requests due after it, as it would a user's.
LoopLog open_loop(const ServeStack& stack, const RequestMix& mix, double seconds,
                  std::size_t first) {
  HttpClient client(stack.port(), /*busy_poll=*/true);
  LoopLog log;
  const double start = now_s();
  for (std::size_t i = 0;; ++i) {
    const double due = start + static_cast<double>(i) / kOfferedRate;
    if (due >= start + seconds) break;
    while (now_s() < due) {
    }
    Sample s;
    s.request = mix.sequence[(first + i) % mix.sequence.size()];
    s.lateness_s = now_s() - due;
    HttpClient::Response resp;
    if (client.get(mix.requests[s.request].target, resp)) s.code = resp.code;
    s.latency_s = now_s() - due;
    log.record(s, std::move(resp.body));
  }
  return log;
}

/// Closed loop: each client sends its next request when the last returns.
LoopLog closed_loop(const ServeStack& stack, const RequestMix& mix, double seconds,
                    std::size_t first, double& elapsed_s) {
  std::atomic<std::size_t> next{0};
  std::vector<LoopLog> per_thread(kClosedClients);
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClosedClients; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client(stack.port());
      while (now_s() - start < seconds) {
        Sample s;
        s.request = mix.sequence[(first + next.fetch_add(1)) % mix.sequence.size()];
        const double begin = now_s();
        HttpClient::Response resp;
        if (client.get(mix.requests[s.request].target, resp)) s.code = resp.code;
        s.latency_s = now_s() - begin;
        per_thread[static_cast<std::size_t>(t)].record(s, std::move(resp.body));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  elapsed_s = now_s() - start;
  LoopLog all;
  for (LoopLog& log : per_thread) all.merge(std::move(log));
  return all;
}

/// Counts attempts and failures, and checks each distinct 200 body with the
/// oracle.
void verify_loop(const LoopLog& log, const RequestMix& mix, ResponseOracle& oracle,
                 Outcome& out) {
  for (const Sample& s : log.samples) {
    ++out.attempted;
    if (s.code != 200) ++out.failed;
  }
  for (const auto& [key, body] : log.bodies) {
    const Request& r = mix.requests[key.first];
    const std::string why = oracle.check(r, body);
    if (!why.empty()) {
      out.mismatch(std::string(kEndpointNames[static_cast<int>(r.endpoint)]) + ": " + why +
                   " (" + r.target + ")");
    }
  }
}

neat::net::HttpRequest in_process_request(const std::string& target) {
  neat::net::HttpRequest req;
  req.method = "GET";
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  req.query = q == std::string::npos ? "" : target.substr(q + 1);
  std::istringstream params(req.query);
  std::string kv;
  while (std::getline(params, kv, '&')) {
    const std::size_t eq = kv.find('=');
    req.params.emplace_back(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return req;
}

neat::net::HttpResponse call_handler(const neat::net::QueryService& service, const Request& r,
                                     const neat::net::HttpRequest& req) {
  switch (r.endpoint) {
    case Endpoint::kNearest: return service.nearest(req);
    case Endpoint::kSegment: return service.segment(req);
    case Endpoint::kTopk: return service.topk(req);
    case Endpoint::kRoute: return service.route(req);
    case Endpoint::kTable: return service.table(req);
  }
  return {};
}

}  // namespace

void run_ingest_window(const Args& args, Outcome& out) {
  std::unique_ptr<SjWorld> world;
  std::unique_ptr<IngestStack> stack;
  const double setup_s = timed_setup([&] {
    stack.reset();
    world = make_world(args, kPool);
    stack = std::make_unique<IngestStack>(*world, kWindow);
    for (std::size_t b = 0; b < kWindow; ++b) {
      require(stack->publish(batch(*world, b)) >= 0.0, "window fill batch failed");
    }
  });
  world->print();
  const Graph g = Graph::load_csv(world->net_csv);
  EndpointDistances dist(g, kEpsilon + 1.0);

  std::vector<double> publish_s;
  double busy_s = 0.0;
  const double start = now_s();
  for (std::size_t k = kWindow; now_s() - start < args.seconds; ++k) {
    ++out.attempted;
    const double t = stack->publish(batch(*world, k));
    if (t < 0.0) {
      ++out.failed;
      continue;
    }
    publish_s.push_back(t);
    busy_s += t;
    check_window_snapshot(g, *stack->store.current(), k, dist, out);
  }
  add_end_to_end(out, setup_s, quantile(publish_s, 0.5), quantile(publish_s, 0.9),
                 static_cast<double>(publish_s.size()) / busy_s, self_peak_rss_mib(),
                 publish_s.size());
}

void trace_ingest_window(const Args& args, SpanLog& log, Outcome& out) {
  const std::unique_ptr<SjWorld> world = make_world(args, kPool);
  const Graph g = Graph::load_csv(world->net_csv);
  EndpointDistances dist(g, kEpsilon + 1.0);
  const neat::Config cfg = server_config();

  // The untraced path: IngestService, exactly as the end-to-end run drives it.
  IngestStack untraced_stack(*world, kWindow);
  // The traced path: the same calls the service's worker makes per batch.
  neat::IncrementalOptions iopts;
  iopts.window_batches = kWindow;
  neat::IncrementalClusterer clusterer(world->net, cfg, iopts);
  neat::serve::SnapshotStore store;
  for (std::size_t b = 0; b < kWindow; ++b) {
    require(untraced_stack.publish(batch(*world, b)) >= 0.0, "window fill batch failed");
    (void)clusterer.add_batch(batch(*world, b));
  }

  std::vector<double> untraced, traced;
  RoundValues v;
  for (std::size_t k = kWindow; k < kWindow + kTracedBatches; ++k) {
    ++out.attempted;
    const double t = untraced_stack.publish(batch(*world, k));
    if (t < 0.0) {
      ++out.failed;
    } else {
      untraced.push_back(t);
    }

    ++out.attempted;
    const neat::traj::TrajectoryDataset b = batch(*world, k);
    {
      SpanLog::Scope op(log, "ingest_window.batch");
      {
        SpanLog::Scope s(log, "serve.add_batch");
        (void)clusterer.add_batch(b);
        v.add("serve.add_batch_s", s.elapsed_s(), "s");
      }
      std::shared_ptr<const neat::serve::ClusterSnapshot> snap;
      {
        SpanLog::Scope s(log, "serve.snapshot_build");
        auto [flows, clusters] = clusterer.snapshot_state();
        snap = neat::serve::ClusterSnapshot::build(world->net, std::move(flows),
                                                   std::move(clusters), k + 1);
        v.add("serve.snapshot_build_s", s.elapsed_s(), "s");
      }
      {
        SpanLog::Scope s(log, "serve.snapshot_publish");
        store.publish(std::move(snap));
        v.add("serve.snapshot_publish_s", s.elapsed_s(), "s");
      }
      traced.push_back(op.elapsed_s());
    }
    check_window_snapshot(g, *store.current(), k, dist, out);

    // Attribution: the phases add_batch just ran, replayed one at a time on
    // the same batch and the same windowed flows.
    std::vector<neat::BaseCluster> base;
    {
      SpanLog::Scope s(log, "core.phase1");
      base = neat::Fragmenter(world->net).build_base_clusters(b, cfg.phase1_threads).base_clusters;
      v.add("core.phase1_s", s.elapsed_s(), "s");
    }
    {
      SpanLog::Scope s(log, "core.phase2");
      const neat::Phase2Output p2 = neat::FlowBuilder(world->net, base, cfg.flow).build();
      v.add("core.phase2_s", s.elapsed_s(), "s");
      v.add("core.flows", static_cast<double>(p2.flows.size()), "count");
    }
    {
      const double cpu = process_cpu_s();
      SpanLog::Scope s(log, "core.phase3");
      const neat::Phase3Output p3 =
          neat::ParallelRefiner(world->net, cfg.refine).refine(clusterer.flows());
      const double wall = s.elapsed_s();
      const double n = static_cast<double>(clusterer.flows().size());
      const double pairs = n * (n - 1) / 2;
      v.add("core.phase3_s", wall, "s");
      v.add("core.phase3_cpu_per_wall", (process_cpu_s() - cpu) / wall, "ratio");
      v.add("core.phase3_pairs", pairs, "count");
      v.add("core.phase3_pairs_evaluated", static_cast<double>(p3.pairs_evaluated), "count");
      v.add("core.phase3_pruned_ratio",
            static_cast<double>(p3.elb_pruned_pairs + p3.lm_pruned_pairs) / pairs, "ratio");
      v.add("core.phase3_sp_computations", static_cast<double>(p3.sp_computations), "count");
      v.add("core.phase3_settled_nodes", static_cast<double>(p3.settled_nodes), "count");
      if (p3.clusters.size() != clusterer.clusters().size()) {
        out.mismatch("replayed Phase 3 disagrees with the incremental clusterer");
      }
    }
  }
  v.add("obs.trace_overhead", median(traced) / median(untraced), "ratio");
  v.report("ingest_window", out);
}

void run_serve_mixed(const Args& args, Outcome& out) {
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<Graph> g;
  RequestMix mix;
  const double setup_s = timed_setup([&] {
    stack.reset();
    stack = std::make_unique<ServeStack>(args);
    g = std::make_unique<Graph>(Graph::load_csv(stack->world().net_csv));
    mix = make_requests(args, stack->world(), *g, stack->snapshot());
    warm_up(*stack, mix);
  });
  stack->world().print();
  std::printf("snapshot: %zu flows in %zu final clusters; %zu distinct requests\n",
              stack->snapshot().flows().size(), stack->snapshot().final_clusters().size(),
              mix.requests.size());

  // The run is cut into epochs of an open then a closed loop, and reports
  // the median epoch: a multi-millisecond stall of the whole machine lands
  // in one epoch and moves its figures, not the run's.
  ResponseOracle oracle(*g, stack->snapshot());
  const double epoch_s = args.seconds / kEpochs;
  std::vector<double> p50, p90, rps;
  std::size_t first = 0;
  std::size_t timed = 0;
  for (int e = 0; e < kEpochs; ++e) {
    stack->start_writer(nullptr);
    const LoopLog open = open_loop(*stack, mix, epoch_s * kOpenShare, first);
    first += open.samples.size();
    double closed_elapsed = 0.0;
    const LoopLog closed =
        closed_loop(*stack, mix, epoch_s * (1.0 - kOpenShare), first, closed_elapsed);
    first += closed.samples.size();
    stack->stop_writer();
    verify_loop(open, mix, oracle, out);
    verify_loop(closed, mix, oracle, out);

    std::vector<double> latency;
    for (const Sample& s : open.samples) latency.push_back(s.latency_s);
    timed += latency.size();
    p50.push_back(quantile(latency, 0.5));
    p90.push_back(quantile(latency, 0.9));
    std::size_t completed = 0;
    for (const Sample& s : closed.samples) completed += s.code != 0 ? 1 : 0;
    rps.push_back(static_cast<double>(completed) / closed_elapsed);
  }
  add_end_to_end(out, setup_s, median(p50), median(p90), median(rps), self_peak_rss_mib(), timed);
}

void trace_serve_mixed(const Args& args, SpanLog& log, Outcome& out) {
  ServeStack stack(args);
  const Graph g = Graph::load_csv(stack.world().net_csv);
  const RequestMix mix = make_requests(args, stack.world(), g, stack.snapshot());
  warm_up(stack, mix);
  ResponseOracle oracle(g, stack.snapshot());
  RoundValues v;
  {
    SpanLog::Scope s(log, "roadnet.ch_build");
    const neat::roadnet::ChEngine ch(stack.world().net);
    v.add("roadnet.ch_build_s", s.elapsed_s(), "s");
  }

  stack.start_writer(&log);
  // In-process handler calls over the request sequence.
  std::vector<std::vector<double>> handler_s(5), exchange_s(5);
  std::vector<double> all_handler, all_exchange, untraced_exchange;
  for (std::size_t i = 0; i < kTracedRequests; ++i) {
    const Request& r = mix.requests[mix.sequence[i % mix.sequence.size()]];
    const neat::net::HttpRequest req = in_process_request(r.target);
    const auto ep = static_cast<std::size_t>(r.endpoint);
    SpanLog::Scope s(log, std::string("serve.handler.") + kEndpointNames[ep]);
    const neat::net::HttpResponse resp = call_handler(stack.service(), r, req);
    const double t = s.elapsed_s();
    handler_s[ep].push_back(t);
    all_handler.push_back(t);
    ++out.attempted;
    if (resp.code != 200) ++out.failed;
  }
  // The same sequence over one connection, untraced then traced.
  LoopLog exchanged;
  for (const bool traced : {false, true}) {
    HttpClient client(stack.port());
    const double cpu = process_cpu_s();
    for (std::size_t i = 0; i < kTracedRequests; ++i) {
      Sample sample;
      sample.request = mix.sequence[i % mix.sequence.size()];
      const Request& r = mix.requests[sample.request];
      const auto ep = static_cast<std::size_t>(r.endpoint);
      std::unique_ptr<SpanLog::Scope> span;
      if (traced) {
        span = std::make_unique<SpanLog::Scope>(log, std::string("net.exchange.") +
                                                          kEndpointNames[ep]);
      }
      const double begin = now_s();
      HttpClient::Response resp;
      if (client.get(r.target, resp)) sample.code = resp.code;
      const double t = now_s() - begin;
      span.reset();
      if (traced) {
        exchange_s[ep].push_back(t);
        all_exchange.push_back(t);
        exchanged.record(sample, std::move(resp.body));
      } else {
        untraced_exchange.push_back(t);
      }
    }
    if (traced) {
      const double n = static_cast<double>(kTracedRequests);
      v.add("net.cpu_us_per_request", (process_cpu_s() - cpu) / n * 1e6, "us");
      v.add("net.connects_per_request", static_cast<double>(client.connects()) / n, "ratio");
    }
  }
  const LoopLog open = open_loop(stack, mix, kTracedOpenS, 0);
  stack.stop_writer();
  std::vector<double> lateness;
  for (const Sample& s : open.samples) lateness.push_back(s.lateness_s);
  verify_loop(exchanged, mix, oracle, out);
  verify_loop(open, mix, oracle, out);

  for (std::size_t ep = 0; ep < 5; ++ep) {
    v.add(std::string("serve.handler_s.") + kEndpointNames[ep], median(handler_s[ep]), "s");
    v.add(std::string("net.exchange_s.") + kEndpointNames[ep], median(exchange_s[ep]), "s");
  }
  v.add("net.overhead_s", median(all_exchange) - median(all_handler), "s");
  v.add("net.generator_lateness_p99_s", quantile(lateness, 0.99), "s");
  v.add("serve.snapshot_build_s", median(stack.build_s()), "s");
  v.add("serve.snapshot_publish_s", median(stack.publish_s()), "s");
  v.add("obs.trace_overhead", median(all_exchange) / median(untraced_exchange), "ratio");
  v.report("serve_mixed", out);
}

namespace {

/// `body` with the number after the first `"field":` (searched from the
/// first occurrence of `after`) increased by `delta`.
std::string bump_number(std::string body, const std::string& field, double delta,
                        const std::string& after = "") {
  const std::size_t from = after.empty() ? 0 : body.find(after);
  const std::size_t at = body.find("\"" + field + "\":", from) + field.size() + 3;
  const std::size_t at_number = field.empty() ? from + after.size() : at;
  char* end = nullptr;
  const double v = std::strtod(body.c_str() + at_number, &end);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v + delta);
  body.replace(at_number, static_cast<std::size_t>(end - (body.c_str() + at_number)), buf);
  return body;
}

}  // namespace

void selftest_serve_workloads(const Args& args, SelfTest& t) {
  ServeStack stack(args);
  const Graph g = Graph::load_csv(stack.world().net_csv);
  const RequestMix mix = make_requests(args, stack.world(), g, stack.snapshot());
  ResponseOracle oracle(g, stack.snapshot());
  HttpClient client(stack.port());
  // The first distinct request of each endpoint, answered by the server.
  for (std::size_t ep = 0; ep < 5; ++ep) {
    const Request* r = nullptr;
    for (const Request& candidate : mix.requests) {
      if (static_cast<std::size_t>(candidate.endpoint) == ep) {
        r = &candidate;
        break;
      }
    }
    HttpClient::Response resp;
    require(client.get(r->target, resp) && resp.code == 200, "self-test request failed");
    const auto body_check = [&, r](std::string body) {
      return [&, r, body](Outcome& o) {
        const std::string why = oracle.check(*r, body);
        if (!why.empty()) o.mismatch(why);
      };
    };
    const std::string name = std::string("/v1/") + kEndpointNames[ep];
    t.accepts(name + " answer", body_check(resp.body));
    switch (static_cast<Endpoint>(ep)) {
      case Endpoint::kNearest:
        t.rejects(name + " with a farther distance", body_check(bump_number(resp.body, "distance_m", 1.0)));
        t.rejects(name + " naming another flow", body_check(bump_number(resp.body, "flow", 1.0)));
        break;
      case Endpoint::kSegment:
        t.rejects(name + " listing another flow", body_check(bump_number(resp.body, "", 1.0, "\"flows\":[")));
        break;
      case Endpoint::kTopk:
        t.rejects(name + " out of rank order", body_check(bump_number(resp.body, "flow", 1.0)));
        break;
      case Endpoint::kRoute:
        t.rejects(name + " with a longer length", body_check(bump_number(resp.body, "length_m", 1.0)));
        break;
      case Endpoint::kTable:
        t.rejects(name + " with a wrong cell", body_check(bump_number(resp.body, "", 1.0, "\"distances_m\":[[")));
        break;
    }
  }
  const neat::serve::ClusterSnapshot& snap = stack.snapshot();
  EndpointDistances dist(g, kEpsilon + 1.0);
  t.accepts("the served snapshot within its window", [&](Outcome& o) {
    check_window_snapshot(g, snap, kSnapshotBatches - 1, dist, o);
  });
  t.rejects("a snapshot holding evicted batches", [&](Outcome& o) {
    check_window_snapshot(g, snap, kSnapshotBatches - 1 + kWindow, dist, o);
  });
}

}  // namespace perfbench
