#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace neat {

void split(std::string_view s, char sep, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  s = trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError(str_cat("malformed floating-point value: '", std::string(s), "'"));
  }
  return value;
}

double parse_finite(std::string_view s, const char* what) {
  const double value = parse_double(s);
  if (!std::isfinite(value)) {
    throw ParseError(str_cat(what, " must be finite, got '", trim(s), "'"));
  }
  return value;
}

std::int64_t parse_int(std::string_view s) {
  s = trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError(str_cat("malformed integer value: '", std::string(s), "'"));
  }
  return value;
}

std::string format_fixed(double value, int precision) {
  // Room for a sign, the 309 integer digits of the largest double, the point
  // and the digits after it (a negative precision means 6, as in printf).
  std::string out(std::size_t{311} + static_cast<std::size_t>(std::max(precision, 6)), '\0');
  const std::to_chars_result r = std::to_chars(out.data(), out.data() + out.size(), value,
                                               std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
  return out;
}

}  // namespace neat
