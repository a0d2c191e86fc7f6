// Shared pieces of the end-to-end benchmark: command-line arguments, the
// outcome every workload reports, exact-sample statistics and the clocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string cli;       ///< Path of the neat_cli binary under test.
  std::string work_dir;  ///< Scratch directory for generated inputs and outputs.
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one workload run reports: operations attempted and failed, whether
/// every output that did not fail passed its oracle, and the metrics.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t mismatches{0};     ///< Outputs an oracle rejected.
  std::vector<std::string> wrong;  ///< The first few mismatch messages.
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an oracle mismatch.
  void mismatch(const std::string& what);
  [[nodiscard]] bool correct() const { return mismatches == 0; }
};

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();
/// User + system CPU seconds of this process (all threads).
double process_cpu_s();
/// Peak resident set of this process in MiB (ru_maxrss).
double self_peak_rss_mib();

/// Exact-sample quantile with linear interpolation (q in [0, 1]); the
/// input is copied and sorted. Empty input gives 0.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

/// Throws std::runtime_error with `what` when `ok` is false: used for the
/// benchmark's own set-up steps, whose failure means no result at all.
void require(bool ok, const std::string& what);

}  // namespace perfbench
