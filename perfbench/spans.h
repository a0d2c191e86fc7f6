// In-memory span recorder for the traced run. Spans are opened by the
// benchmark's own code around each call into a program layer; nothing is
// recorded inside the program. Spans belong to the section (workload) open
// when they start. At the end the spans are written as Chrome trace JSON,
// one process per section, and summarised per section and span name with
// self time (duration minus the time covered by child spans on the same
// thread).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::size_t section{0};
    std::uint64_t request{0};  ///< Spans of one operation share this id.
    int thread{0};
    int parent{-1};  ///< Index of the enclosing span on the same thread.
    double begin_s{0.0};
    double end_s{0.0};
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    [[nodiscard]] double elapsed_s() const;

   private:
    SpanLog& log_;
    int index_;
    double begin_s_;
  };

  /// Spans opened from now on, on any thread, belong to section `name`.
  void begin_section(std::string name);

  struct Summary {
    std::string section;
    std::string name;
    std::size_t count{0};
    double total_s{0.0};
    double self_s{0.0};
  };

  /// Per section and span name, in section order, then by name.
  [[nodiscard]] std::vector<Summary> summarize() const;
  void write_chrome_json(std::ostream& out) const;
  void print_table(std::ostream& out) const;

 private:
  int open(std::string name, std::uint64_t request, double begin_s);
  void close(int index, double end_s);

  mutable std::mutex mu_;
  std::vector<std::string> sections_{""};
  std::vector<Span> spans_;
};

}  // namespace perfbench
