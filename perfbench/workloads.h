// The four workloads. Each has an untraced run that measures the
// end-to-end metrics for --seconds, and a traced round that times the calls
// into each program layer with spans and reports the per-layer metrics.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace perfbench {

/// How many times set-up is repeated in an untraced run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Times `fn` kSetupRepeats times and returns the median. The last call's
/// state is the one the run keeps.
double timed_setup(const std::function<void()>& fn);

/// Per-layer values gathered over a traced round's operations; each metric
/// reports the median of its values.
class RoundValues {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto& slot = values_[name];
    slot.first.push_back(value);
    slot.second = unit;
  }
  /// Adds one metric per name, prefixed by the workload name.
  void report(const std::string& workload, Outcome& out) const {
    for (const auto& [name, slot] : values_) {
      out.add(workload + "." + name, median(slot.first), slot.second);
    }
  }

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> values_;
};

/// Adds the end-to-end metrics every workload reports; `samples` is the
/// number of operations the latencies come from.
void add_end_to_end(Outcome& out, double setup_s, double op_p50_s, double op_p90_s,
                    double ops_per_s, double peak_rss_mib, std::size_t samples);

void run_cli_csv(const Args& args, Outcome& out);
void run_ooc_stream(const Args& args, Outcome& out);
void run_ingest_window(const Args& args, Outcome& out);
void run_serve_mixed(const Args& args, Outcome& out);

void trace_cli_csv(const Args& args, SpanLog& log, Outcome& out);
void trace_ooc_stream(const Args& args, SpanLog& log, Outcome& out);
void trace_ingest_window(const Args& args, SpanLog& log, Outcome& out);
void trace_serve_mixed(const Args& args, SpanLog& log, Outcome& out);

/// Oracle self-tests: every check must accept the program's true output and
/// reject each corruption of it.
class SelfTest {
 public:
  void accepts(const std::string& what, const std::function<void(Outcome&)>& check);
  void rejects(const std::string& what, const std::function<void(Outcome&)>& check);
  [[nodiscard]] int failures() const { return failures_; }

 private:
  int failures_{0};
};

void selftest_cli_workloads(const Args& args, SelfTest& t);
void selftest_serve_workloads(const Args& args, SelfTest& t);

/// Runs every self-test; returns the number that failed.
int run_selftest(const Args& args);

}  // namespace perfbench
