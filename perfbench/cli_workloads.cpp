// cli_csv and ooc_stream: neat_cli run as a child process the way a user
// runs it, on a CSV dataset and on an out-of-core columnar dataset over the
// generated MIA network.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/clusterer.h"
#include "core/parallel_refiner.h"
#include "oracle.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "sim/mobility_simulator.h"
#include "sim/synthetic_stream.h"
#include "store/columnar_store.h"
#include "traj/io.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

// Input sizes (see README.md, "Workloads").
constexpr double kMiaScale = 0.5;            ///< MIA preset at half its lattice side.
constexpr std::size_t kCliObjects = 1500;    ///< Simulated objects in the CSV dataset.
constexpr std::size_t kWalks = 20000;        ///< Corridor walks in the columnar dataset.
constexpr const char* kThreads = "4";        ///< --threads and --refine-threads.
constexpr double kEpsilon = 3000.0;          ///< neat_cli's default Phase 3 epsilon.
constexpr int kTracedRounds = 3;             ///< Untraced and traced ops per traced round.

struct Inputs {
  std::string net_csv;
  std::string data;  ///< Trajectory CSV or columnar file.
  std::size_t segments{0};
  std::size_t trajectories{0};
  std::size_t points{0};

  void print() const {
    std::cout << "inputs: " << net_csv << " (" << segments << " segments, "
              << std::filesystem::file_size(net_csv) << " bytes), " << data << " ("
              << trajectories << " trajectories, " << points << " points, "
              << std::filesystem::file_size(data) << " bytes)\n";
  }
};

neat::roadnet::RoadNetwork write_network(Inputs& in) {
  neat::roadnet::RoadNetwork net = neat::roadnet::make_named_city("MIA", kMiaScale);
  neat::roadnet::save_network(net, in.net_csv);
  in.segments = net.segment_count();
  return net;
}

Inputs make_csv_inputs(const Args& args) {
  Inputs in{args.work_dir + "/mia_network.csv", args.work_dir + "/mia_trips.csv"};
  const neat::roadnet::RoadNetwork net = write_network(in);
  // The MIA simulation settings of the figure benches (eval::ExperimentEnv).
  neat::sim::SimConfig cfg = neat::sim::default_config(net, 4, 4);
  cfg.sample_period_s = 5.7;
  cfg.hotspot_radius_m = 2000.0;
  const neat::traj::TrajectoryDataset data =
      neat::sim::MobilitySimulator(net, cfg).generate(kCliObjects, args.seed);
  neat::traj::save_dataset(data, in.data);
  in.trajectories = data.size();
  in.points = data.total_points();
  return in;
}

Inputs make_columnar_inputs(const Args& args) {
  Inputs in{args.work_dir + "/mia_network.csv", args.work_dir + "/mia_walks.neatcol"};
  const neat::roadnet::RoadNetwork net = write_network(in);
  neat::sim::SyntheticStreamOptions opts;
  opts.trajectories = kWalks;
  opts.seed = args.seed;
  const neat::sim::SyntheticStreamStats stats =
      neat::sim::generate_columnar_stream(net, in.data, opts);
  in.trajectories = stats.trajectories;
  in.points = stats.points;
  return in;
}

struct Child {
  int exit_code{-1};
  double wall_s{0.0};
  double peak_rss_mib{0.0};
  std::string stdout_text;
};

/// Runs argv to completion with stdout and stderr sent to files; times it
/// from spawn to reap and reads its own peak RSS from wait4.
Child run_child(const std::vector<std::string>& argv, const std::string& dir) {
  const std::string out_path = dir + "/child_stdout.txt";
  const std::string err_path = dir + "/child_stderr.txt";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  Child c;
  const double start = now_s();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return c;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.wall_s = now_s() - start;
  c.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  c.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::ifstream out(out_path);
  std::ostringstream text;
  text << out.rdbuf();
  c.stdout_text = text.str();
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The report without its timing line, which legitimately varies.
std::string stable_report(const std::string& report) {
  std::istringstream in(report);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("timings:", 0) != 0) out += line + '\n';
  }
  return out;
}

std::vector<std::string> cli_job_argv(const Args& args, const Inputs& in) {
  return {args.cli,       "--network", in.net_csv, "--trajectories", in.data,
          "--threads",    kThreads,    "--refine-threads", kThreads, "--out",
          args.work_dir + "/job",      "--log-out", args.work_dir + "/cli_log.jsonl"};
}

std::vector<std::string> ooc_job_argv(const Args& args, const Inputs& in) {
  return {args.cli,  "--network", in.net_csv,         "--trajectories",
          in.data,   "--columnar", "--mode",           "base",
          "--threads", kThreads,   "--out",            args.work_dir + "/job",
          "--log-out", args.work_dir + "/cli_log.jsonl"};
}

/// Checks one opt-NEAT CLI output with the oracles: report and flows CSV
/// parse, counts agree, flows pass check_flows.
void check_cli_output(const std::string& report, const std::string& flows_csv, const Graph& g,
                      EndpointDistances& dist, Outcome& out) {
  CliOutput cli;
  std::string error;
  if (!parse_cli_output(report, flows_csv, cli, error)) {
    out.mismatch(error);
    return;
  }
  if (cli.flows.size() != cli.flow_count) {
    out.mismatch("flows CSV and report disagree on the flow count");
  }
  std::vector<int> clusters;
  for (const FlowView& f : cli.flows) clusters.push_back(f.final_cluster);
  std::sort(clusters.begin(), clusters.end());
  clusters.erase(std::unique(clusters.begin(), clusters.end()), clusters.end());
  if (clusters.size() != cli.final_clusters) {
    out.mismatch("flows CSV and report disagree on the final cluster count");
  }
  check_flows(g, cli.flows, kEpsilon, cli.min_card, dist, out);
}

/// Verifies job outputs: the first successful one against the oracles,
/// every later one byte for byte against that verified output.
class JobVerifier {
 public:
  explicit JobVerifier(std::function<void(const std::string& report, Outcome&)> oracle)
      : oracle_(std::move(oracle)) {}

  void verify(const std::string& report, const std::string& payload, Outcome& out) {
    if (!verified_) {
      const std::uint64_t before = out.mismatches;
      oracle_(report, out);
      if (out.mismatches == before) {
        verified_ = true;
        report_ = stable_report(report);
        payload_ = payload;
      }
      return;
    }
    if (stable_report(report) != report_ || payload != payload_) {
      out.mismatch("job output differs from the oracle-verified output of the same inputs");
    }
  }

 private:
  std::function<void(const std::string&, Outcome&)> oracle_;
  bool verified_{false};
  std::string report_;
  std::string payload_;
};

/// The untraced measurement loop shared by both CLI workloads.
void measure_jobs(const Args& args, const std::vector<std::string>& argv,
                  const std::string& payload_path, JobVerifier& verifier, double setup_s,
                  Outcome& out) {
  std::vector<double> wall, rss;
  const auto job = [&]() {
    const Child c = run_child(argv, args.work_dir);
    ++out.attempted;
    if (c.exit_code != 0) {
      ++out.failed;
      return;
    }
    verifier.verify(c.stdout_text, payload_path.empty() ? "" : read_file(payload_path), out);
    wall.push_back(c.wall_s);
    rss.push_back(c.peak_rss_mib);
  };
  job();  // warm-up: page cache and the oracle's reference output
  wall.clear();
  rss.clear();
  const double start = now_s();
  while (now_s() - start < args.seconds) job();
  double busy_s = 0.0;
  for (const double w : wall) busy_s += w;
  add_end_to_end(out, setup_s, quantile(wall, 0.5), quantile(wall, 0.9),
                 static_cast<double>(wall.size()) / busy_s, median(rss), wall.size());
}

neat::Config cli_config() {
  neat::Config cfg;  // opt-NEAT defaults, as neat_cli without flags
  cfg.phase1_threads = 4;
  cfg.refine.threads = 4;
  return cfg;
}

std::vector<FlowView> flow_views(const neat::Result& res) {
  std::vector<FlowView> views(res.flow_clusters.size());
  for (std::size_t c = 0; c < res.final_clusters.size(); ++c) {
    for (const std::size_t f : res.final_clusters[c].flows) {
      views[f].final_cluster = static_cast<int>(c);
    }
  }
  for (std::size_t f = 0; f < views.size(); ++f) {
    const neat::FlowCluster& flow = res.flow_clusters[f];
    for (const neat::SegmentId s : flow.route) views[f].route.push_back(s.value());
    for (const neat::NodeId n : flow.junctions) views[f].junctions.push_back(n.value());
    views[f].route_length = flow.route_length;
    views[f].cardinality = flow.cardinality();
  }
  return views;
}

/// Process-wide page-fault counters.
std::pair<double, double> page_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_majflt), static_cast<double>(ru.ru_minflt)};
}

/// Wraps the columnar source to time materialisation (summed over the
/// Phase 1 workers) and the per-batch page release.
class TimedSource final : public neat::TrajectorySource {
 public:
  explicit TimedSource(const neat::store::ColumnarTrajectoryStore& store) : inner_(store) {}
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] neat::traj::Trajectory at(std::size_t i) const override {
    const double start = now_s();
    neat::traj::Trajectory tr = inner_.at(i);
    at_ns_.fetch_add(static_cast<std::int64_t>((now_s() - start) * 1e9),
                     std::memory_order_relaxed);
    return tr;
  }
  void batch_done(std::size_t begin, std::size_t end) override {
    const double start = now_s();
    inner_.batch_done(begin, end);
    release_s_ += now_s() - start;
  }
  [[nodiscard]] double materialize_s() const { return static_cast<double>(at_ns_.load()) * 1e-9; }
  [[nodiscard]] double release_s() const { return release_s_; }

 private:
  neat::store::ColumnarTrajectorySource inner_;
  mutable std::atomic<std::int64_t> at_ns_{0};
  double release_s_{0.0};
};

}  // namespace

void run_cli_csv(const Args& args, Outcome& out) {
  Inputs in;
  const double setup_s = timed_setup([&] { in = make_csv_inputs(args); });
  in.print();
  const Graph g = Graph::load_csv(in.net_csv);
  EndpointDistances dist(g, kEpsilon + 1.0);
  const std::string flows_path = args.work_dir + "/job_flows.csv";
  JobVerifier verifier([&](const std::string& report, Outcome& o) {
    check_cli_output(report, flows_path, g, dist, o);
  });
  measure_jobs(args, cli_job_argv(args, in), flows_path, verifier, setup_s, out);
}

void run_ooc_stream(const Args& args, Outcome& out) {
  Inputs in;
  const double setup_s = timed_setup([&] { in = make_columnar_inputs(args); });
  in.print();
  const Graph g = Graph::load_csv(in.net_csv);
  const RunCounts runs = count_segment_runs(in.data, g.segments.size());
  JobVerifier verifier([&](const std::string& report, Outcome& o) {
    CliOutput cli;
    std::string error;
    if (!parse_cli_output(report, "", cli, error)) {
      o.mismatch(error);
      return;
    }
    check_base_clusters(cli, runs, o);
  });
  measure_jobs(args, ooc_job_argv(args, in), "", verifier, setup_s, out);
}

void trace_cli_csv(const Args& args, SpanLog& log, Outcome& out) {
  const Inputs in = make_csv_inputs(args);
  const Graph g = Graph::load_csv(in.net_csv);
  EndpointDistances dist(g, kEpsilon + 1.0);
  const neat::Config cfg = cli_config();
  std::vector<double> untraced, traced;
  RoundValues v;
  for (int round = 0; round < kTracedRounds; ++round) {
    ++out.attempted;
    const Child c = run_child(cli_job_argv(args, in), args.work_dir);
    if (c.exit_code != 0) ++out.failed;
    else untraced.push_back(c.wall_s);

    // The CLI's work, one public call per layer.
    ++out.attempted;
    neat::Result res;
    {
      SpanLog::Scope job(log, "cli_csv.job");
      neat::roadnet::RoadNetwork net;
      {
        SpanLog::Scope s(log, "roadnet.load_network");
        net = neat::roadnet::load_network(in.net_csv);
        v.add("roadnet.load_network_s", s.elapsed_s(), "s");
      }
      neat::traj::TrajectoryDataset data;
      {
        SpanLog::Scope s(log, "traj.load_dataset");
        data = neat::traj::load_dataset(in.data);
        v.add("traj.load_dataset_s", s.elapsed_s(), "s");
      }
      v.add("traj.points", static_cast<double>(data.total_points()), "count");
      {
        const double cpu = process_cpu_s();
        SpanLog::Scope s(log, "core.phase1");
        neat::Phase1Output p1 = neat::Fragmenter(net).build_base_clusters(data, cfg.phase1_threads);
        const double wall = s.elapsed_s();
        v.add("core.phase1_s", wall, "s");
        v.add("core.phase1_cpu_per_wall", (process_cpu_s() - cpu) / wall, "ratio");
        v.add("core.fragments", static_cast<double>(p1.num_fragments), "count");
        v.add("core.gap_repairs", static_cast<double>(p1.num_gap_repairs), "count");
        v.add("core.base_clusters", static_cast<double>(p1.base_clusters.size()), "count");
        res.base_clusters = std::move(p1.base_clusters);
      }
      {
        SpanLog::Scope s(log, "core.phase2");
        neat::Phase2Output p2 = neat::FlowBuilder(net, res.base_clusters, cfg.flow).build();
        v.add("core.phase2_s", s.elapsed_s(), "s");
        v.add("core.flows", static_cast<double>(p2.flows.size()), "count");
        res.flow_clusters = std::move(p2.flows);
        res.effective_min_card = p2.effective_min_card;
      }
      {
        SpanLog::Scope s(log, "core.phase3");
        neat::Phase3Output p3 = neat::ParallelRefiner(net, cfg.refine).refine(res.flow_clusters);
        v.add("core.phase3_s", s.elapsed_s(), "s");
        res.final_clusters = std::move(p3.clusters);
      }
      traced.push_back(job.elapsed_s());
    }
    check_flows(g, flow_views(res), kEpsilon, res.effective_min_card, dist, out);
  }
  v.add("obs.trace_overhead", median(traced) / median(untraced), "ratio");
  v.report("cli_csv", out);
}

void trace_ooc_stream(const Args& args, SpanLog& log, Outcome& out) {
  const Inputs in = make_columnar_inputs(args);
  const Graph g = Graph::load_csv(in.net_csv);
  const RunCounts runs = count_segment_runs(in.data, g.segments.size());
  const neat::Config cfg = cli_config();
  std::vector<double> untraced, traced;
  RoundValues v;
  for (int round = 0; round < kTracedRounds; ++round) {
    ++out.attempted;
    const Child c = run_child(ooc_job_argv(args, in), args.work_dir);
    if (c.exit_code != 0) ++out.failed;
    else untraced.push_back(c.wall_s);

    // The CLI's --columnar work, one public call per layer.
    ++out.attempted;
    neat::Phase1Output p1;
    {
      SpanLog::Scope job(log, "ooc_stream.job");
      neat::roadnet::RoadNetwork net;
      {
        SpanLog::Scope s(log, "roadnet.load_network");
        net = neat::roadnet::load_network(in.net_csv);
        v.add("roadnet.load_network_s", s.elapsed_s(), "s");
      }
      // Page faults are process-wide, counted while the store is open.
      const auto faults_before = page_faults();
      std::unique_ptr<neat::store::ColumnarTrajectoryStore> store;
      {
        SpanLog::Scope s(log, "store.open");
        store = std::make_unique<neat::store::ColumnarTrajectoryStore>(in.data);
        v.add("store.open_s", s.elapsed_s(), "s");
      }
      TimedSource source(*store);
      {
        const double cpu = process_cpu_s();
        SpanLog::Scope s(log, "core.phase1");
        p1 = neat::Fragmenter(net).build_base_clusters(source, cfg.phase1_threads);
        const double wall = s.elapsed_s();
        v.add("core.phase1_s", wall, "s");
        v.add("core.phase1_cpu_per_wall", (process_cpu_s() - cpu) / wall, "ratio");
      }
      traced.push_back(job.elapsed_s());
      const auto faults_after = page_faults();
      v.add("store.materialize_s", source.materialize_s(), "s");
      v.add("store.release_s", source.release_s(), "s");
      v.add("store.major_faults", faults_after.first - faults_before.first, "count");
      v.add("store.minor_faults", faults_after.second - faults_before.second, "count");
    }
    v.add("core.fragments", static_cast<double>(p1.num_fragments), "count");
    v.add("core.base_clusters", static_cast<double>(p1.base_clusters.size()), "count");

    CliOutput cli;
    cli.fragments = p1.num_fragments;
    cli.base_clusters = p1.base_clusters.size();
    if (!p1.base_clusters.empty()) {
      const neat::BaseCluster& core = p1.base_clusters.front();
      cli.dense_segment = core.sid().value();
      cli.dense_density = static_cast<std::size_t>(core.density());
      cli.dense_cardinality = static_cast<std::size_t>(core.cardinality());
    }
    check_base_clusters(cli, runs, out);
  }
  v.add("obs.trace_overhead", median(traced) / median(untraced), "ratio");
  v.report("ooc_stream", out);
}

void selftest_cli_workloads(const Args& args, SelfTest& t) {
  // Opt-NEAT flows of a real CLI run, then corrupted copies of them.
  const Inputs csv = make_csv_inputs(args);
  const Graph g = Graph::load_csv(csv.net_csv);
  EndpointDistances dist(g, kEpsilon + 1.0);
  const Child job = run_child(cli_job_argv(args, csv), args.work_dir);
  require(job.exit_code == 0, "neat_cli failed in the self-test");
  CliOutput cli;
  std::string error;
  require(parse_cli_output(job.stdout_text, args.work_dir + "/job_flows.csv", cli, error), error);
  require(cli.flows.size() >= 3 && cli.final_clusters >= 2 && cli.final_clusters < cli.flows.size(),
          "self-test needs several flows in several final clusters");
  const auto flows_check = [&](const std::function<void(std::vector<FlowView>&)>& corrupt) {
    return [&, corrupt](Outcome& o) {
      std::vector<FlowView> flows = cli.flows;
      corrupt(flows);
      check_flows(g, flows, kEpsilon, cli.min_card, dist, o);
    };
  };
  t.accepts("the CLI's flows", flows_check([](std::vector<FlowView>&) {}));
  t.rejects("a flow moved to another final cluster", flows_check([](std::vector<FlowView>& f) {
    // A flow that shares its cluster leaves it: its cluster splits.
    for (std::size_t i = 0; i < f.size(); ++i) {
      for (std::size_t j = 0; j < f.size(); ++j) {
        if (i != j && f[i].final_cluster == f[j].final_cluster) {
          f[i].final_cluster = 1 << 20;
          return;
        }
      }
    }
  }));
  t.rejects("all flows merged into one final cluster", flows_check([](std::vector<FlowView>& f) {
    for (FlowView& v : f) v.final_cluster = 0;
  }));
  t.rejects("a route with a non-adjacent segment", flows_check([&](std::vector<FlowView>& f) {
    FlowView& v = f.front();
    v.route.back() = (v.route.back() + static_cast<int>(g.segments.size()) / 2) %
                     static_cast<int>(g.segments.size());
  }));
  t.rejects("a cardinality below minCard", flows_check([](std::vector<FlowView>& f) {
    f.front().cardinality = 0;
  }));
  t.rejects("a wrong route length", flows_check([](std::vector<FlowView>& f) {
    f.front().route_length += 10.0;
  }));

  // Base clusters of a real out-of-core run against the run counts.
  const Inputs col = make_columnar_inputs(args);
  const RunCounts runs = count_segment_runs(col.data, g.segments.size());
  const Child base = run_child(ooc_job_argv(args, col), args.work_dir);
  require(base.exit_code == 0, "neat_cli --columnar failed in the self-test");
  CliOutput report;
  require(parse_cli_output(base.stdout_text, "", report, error), error);
  const auto base_check = [&](const std::function<void(CliOutput&)>& corrupt) {
    return [&, corrupt](Outcome& o) {
      CliOutput r = report;
      corrupt(r);
      check_base_clusters(r, runs, o);
    };
  };
  t.accepts("the out-of-core base clusters", base_check([](CliOutput&) {}));
  t.rejects("one t-fragment too many", base_check([](CliOutput& r) { ++r.fragments; }));
  t.rejects("one base cluster too few", base_check([](CliOutput& r) { --r.base_clusters; }));
  t.rejects("a dense core that is not the densest segment",
            base_check([&](CliOutput& r) {
              for (std::size_t s = 0; s < runs.density.size(); ++s) {
                if (runs.density[s] > 0 && runs.density[s] < r.dense_density) {
                  r.dense_segment = static_cast<int>(s);
                  r.dense_density = runs.density[s];
                  r.dense_cardinality = runs.cardinality[s];
                  return;
                }
              }
            }));
}

}  // namespace perfbench
