// neat_perfbench — the repository's end-to-end benchmark harness.
//
//   neat_perfbench --workload cli_csv|ooc_stream|ingest_window|serve_mixed
//                  --seed N --seconds S --trace 0|1 --cli PATH [--work-dir DIR]
//   neat_perfbench --selftest --cli PATH [--work-dir DIR]
//
// --trace 0 measures the named workload for S seconds and reports its
// end-to-end metrics. --trace 1 runs one traced round of every workload
// (each traced run must report every per-layer metric, and each layer is
// exercised by its own workload), writes the spans as Chrome trace JSON to
// DIR/trace.json, prints a per-span self-time table and reports the
// per-layer metrics. The last stdout line is always the JSON result;
// program logs go to DIR/program_log.jsonl (in-process) and
// DIR/cli_log.jsonl (neat_cli children). See README.md.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/log/log.h"
#include "workloads.h"

using namespace perfbench;

namespace perfbench {

double timed_setup(const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = now_s();
    fn();
    times.push_back(now_s() - start);
  }
  return median(times);
}

void add_end_to_end(Outcome& out, double setup_s, double op_p50_s, double op_p90_s,
                    double ops_per_s, double peak_rss_mib, std::size_t samples) {
  out.add("setup_s", setup_s, "s");
  out.add("op_p50_s", op_p50_s, "s");
  out.add("op_p90_s", op_p90_s, "s");
  out.add("ops_per_s", ops_per_s, "1/s");
  out.add("peak_rss_mib", peak_rss_mib, "MiB");
  std::cout << "samples: " << samples << " operations timed\n";
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: neat_perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH\n"
            << "                      [--work-dir DIR]\n"
            << "       neat_perfbench --selftest --cli PATH [--work-dir DIR]\n"
            << "workloads: cli_csv ooc_stream ingest_window serve_mixed\n";
  std::exit(2);
}

void print_result(const Outcome& out) {
  char line[200];
  for (const Metric& m : out.metrics) {
    std::snprintf(line, sizeof(line), "  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
  std::cout << "attempted " << out.attempted << ", failed " << out.failed << ", oracle mismatches "
            << out.mismatches << '\n';
  for (const std::string& w : out.wrong) std::cout << "  mismatch: " << w << '\n';
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(line, sizeof(line), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += line;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool selftest = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") args.workload = value();
      else if (arg == "--seed") args.seed = std::stoull(value());
      else if (arg == "--seconds") args.seconds = std::stod(value());
      else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (arg == "--cli") args.cli = value();
      else if (arg == "--work-dir") args.work_dir = value();
      else if (arg == "--selftest") selftest = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (args.cli.empty()) usage("--cli is required");
  if (!selftest) {
    if (args.workload != "cli_csv" && args.workload != "ooc_stream" &&
        args.workload != "ingest_window" && args.workload != "serve_mixed") {
      usage("unknown workload '" + args.workload + "'");
    }
    if (!have_trace || args.seconds <= 0) usage("--trace and a positive --seconds are required");
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_work/" + (selftest ? std::string("selftest") : args.workload);
  }
  std::filesystem::create_directories(args.work_dir);
  neat::obs::log::Logger& logger = neat::obs::log::Logger::global();
  if (!logger.set_output_file(args.work_dir + "/program_log.jsonl")) {
    std::cerr << "error: cannot open the program log in " << args.work_dir << '\n';
    return 1;
  }

  try {
    if (selftest) {
      const int failures = run_selftest(args);
      logger.flush();
      std::cout << (failures == 0 ? "selftest: every oracle rejected its corrupted output\n"
                                  : "selftest: FAILED\n");
      return failures == 0 ? 0 : 1;
    }
    std::cout << "perfbench: workload " << args.workload << ", seed " << args.seed << ", "
              << args.seconds << " s, trace " << args.trace << '\n';
    Outcome out;
    if (!args.trace) {
      if (args.workload == "cli_csv") run_cli_csv(args, out);
      else if (args.workload == "ooc_stream") run_ooc_stream(args, out);
      else if (args.workload == "ingest_window") run_ingest_window(args, out);
      else run_serve_mixed(args, out);
    } else {
      SpanLog log;
      log.begin_section("cli_csv");
      trace_cli_csv(args, log, out);
      log.begin_section("ooc_stream");
      trace_ooc_stream(args, log, out);
      log.begin_section("ingest_window");
      trace_ingest_window(args, log, out);
      log.begin_section("serve_mixed");
      trace_serve_mixed(args, log, out);
      std::ofstream trace(args.work_dir + "/trace.json");
      log.write_chrome_json(trace);
      log.print_table(std::cout);
      std::cout << "spans written to " << args.work_dir << "/trace.json\n";
    }
    logger.flush();
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    logger.flush();
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
