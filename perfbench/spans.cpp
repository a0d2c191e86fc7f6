#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <ostream>

#include "bench.h"

namespace perfbench {

namespace {

int this_thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::uint64_t request)
    : log_(log), index_(-1), begin_s_(now_s()) {
  index_ = log_.open(std::move(name), request, begin_s_);
}

SpanLog::Scope::~Scope() { log_.close(index_, now_s()); }

double SpanLog::Scope::elapsed_s() const { return now_s() - begin_s_; }

void SpanLog::begin_section(std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  sections_.push_back(std::move(name));
}

int SpanLog::open(std::string name, std::uint64_t request, double begin_s) {
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  const std::lock_guard<std::mutex> lock(mu_);
  if (request == 0 && parent >= 0) request = spans_[static_cast<std::size_t>(parent)].request;
  spans_.push_back({std::move(name), sections_.size() - 1, request, this_thread_number(), parent,
                    begin_s, begin_s});
  const int index = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void SpanLog::close(int index, double end_s) {
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = end_s;
}

std::vector<SpanLog::Summary> SpanLog::summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.begin_s;
  }
  std::map<std::pair<std::size_t, std::string>, Summary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = by_name[{spans_[i].section, spans_[i].name}];
    sum.section = sections_[spans_[i].section];
    sum.name = spans_[i].name;
    const double d = spans_[i].end_s - spans_[i].begin_s;
    ++sum.count;
    sum.total_s += d;
    sum.self_s += std::max(0.0, d - child_s[i]);
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double origin = spans_.empty() ? 0.0 : spans_.front().begin_s;
  for (const Span& s : spans_) origin = std::min(origin, s.begin_s);
  // Span and section names are the benchmark's own identifiers: no JSON
  // escaping needed.
  std::vector<std::string> events;
  for (std::size_t p = 1; p < sections_.size(); ++p) {
    events.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(p) +
                     ",\"args\":{\"name\":\"" + sections_[p] + "\"}}");
  }
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", (s.begin_s - origin) * 1e6,
                  (s.end_s - s.begin_s) * 1e6);
    events.push_back("{\"name\":\"" + s.name + "\",\"cat\":\"" + s.name.substr(0, s.name.find('.')) +
                     "\",\"ph\":\"X\"," + buf + ",\"pid\":" + std::to_string(s.section) +
                     ",\"tid\":" + std::to_string(s.thread) + ",\"args\":{\"request\":" +
                     std::to_string(s.request) + "}}");
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) out << (i == 0 ? "" : ",") << events[i];
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void SpanLog::print_table(std::ostream& out) const {
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %-28s %7s %12s %12s\n", "workload", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (const Summary& s : summarize()) {
    std::snprintf(line, sizeof(line), "%-14s %-28s %7zu %12.3f %12.3f\n", s.section.c_str(),
                  s.name.c_str(), s.count, s.total_s * 1e3, s.self_s * 1e3);
    out << line;
  }
}

}  // namespace perfbench
