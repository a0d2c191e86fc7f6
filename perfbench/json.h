// A small JSON reader for checking /v1/* response bodies: objects, arrays,
// numbers, strings (no escapes beyond \" and \\), true, false and null.
#pragma once

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind{Kind::kNull};
  double number{0.0};
  bool boolean{false};
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  /// Field `key` of an object; a null value when absent.
  [[nodiscard]] const Json& operator[](const std::string& key) const {
    static const Json missing;
    const auto it = fields.find(key);
    return it == fields.end() ? missing : it->second;
  }
  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }

  /// Parses `s`; returns false on malformed input or trailing bytes.
  static bool parse(const std::string& s, Json& out) {
    std::size_t pos = 0;
    return parse_value(s, pos, out) && (skip(s, pos), pos == s.size());
  }

 private:
  static void skip(const std::string& s, std::size_t& pos) {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\r' || s[pos] == '\t')) {
      ++pos;
    }
  }
  static bool parse_string(const std::string& s, std::size_t& pos, std::string& out) {
    if (s[pos] != '"') return false;
    for (++pos; pos < s.size(); ++pos) {
      if (s[pos] == '"') {
        ++pos;
        return true;
      }
      if (s[pos] == '\\' && ++pos >= s.size()) return false;
      out += s[pos];
    }
    return false;
  }
  static bool parse_value(const std::string& s, std::size_t& pos, Json& out) {
    skip(s, pos);
    if (pos >= s.size()) return false;
    const char c = s[pos];
    if (c == '{') {
      out.kind = Kind::kObject;
      ++pos;
      skip(s, pos);
      if (pos < s.size() && s[pos] == '}') return ++pos, true;
      while (true) {
        skip(s, pos);
        std::string key;
        if (pos >= s.size() || !parse_string(s, pos, key)) return false;
        skip(s, pos);
        if (pos >= s.size() || s[pos++] != ':') return false;
        if (!parse_value(s, pos, out.fields[key])) return false;
        skip(s, pos);
        if (pos >= s.size()) return false;
        if (s[pos] == ',') {
          ++pos;
          continue;
        }
        return s[pos++] == '}';
      }
    }
    if (c == '[') {
      out.kind = Kind::kArray;
      ++pos;
      skip(s, pos);
      if (pos < s.size() && s[pos] == ']') return ++pos, true;
      while (true) {
        out.items.emplace_back();
        if (!parse_value(s, pos, out.items.back())) return false;
        skip(s, pos);
        if (pos >= s.size()) return false;
        if (s[pos] == ',') {
          ++pos;
          continue;
        }
        return s[pos++] == ']';
      }
    }
    if (c == '"') {
      out.kind = Kind::kString;
      return parse_string(s, pos, out.text);
    }
    for (const auto& [word, kind, value] :
         {std::tuple{"null", Kind::kNull, false}, {"true", Kind::kBool, true},
          {"false", Kind::kBool, false}}) {
      if (s.compare(pos, std::char_traits<char>::length(word), word) == 0) {
        out.kind = kind;
        out.boolean = value;
        pos += std::char_traits<char>::length(word);
        return true;
      }
    }
    char* end = nullptr;
    out.number = std::strtod(s.c_str() + pos, &end);
    if (end == s.c_str() + pos) return false;
    out.kind = Kind::kNumber;
    pos = static_cast<std::size_t>(end - s.c_str());
    return true;
  }
};

}  // namespace perfbench
