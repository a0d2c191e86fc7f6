#include "common/csv.h"

#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/string_util.h"

namespace neat {

std::string csv_escape(const std::string& field, char sep) {
  const bool needs_quotes =
      field.find_first_of(std::string{sep} + "\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << sep_;
    out_ << csv_escape(fields[i], sep_);
  }
  out_ << '\n';
}

bool CsvReader::read_row(std::vector<std::string_view>& fields) {
  if (!std::getline(in_, buf_)) return false;
  row_line_ = ++line_;
  if (buf_.find('"') != std::string::npos) {
    split_quoted(fields);
    return true;
  }
  if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
  split(buf_, sep_, fields);
  return true;
}

// Unescapes the row in place: the write cursor `w` never passes the read
// cursor `r`, and a continuation line is appended behind both. Fields are
// kept as offsets until the end because appending may move the buffer.
void CsvReader::split_quoted(std::vector<std::string_view>& fields) {
  const auto fail = [this](const char* what) {
    throw ParseError(str_cat("line ", row_line_, ": ", what));
  };
  // A '\r' that ends a physical line outside quotes is a line terminator.
  const auto at_line_end = [this](std::size_t r) {
    return r == buf_.size() || (r + 1 == buf_.size() && buf_[r] == '\r');
  };
  std::vector<std::size_t> bounds;  // [begin, end) of each field
  std::string next;
  std::size_t r = 0;
  std::size_t w = 0;
  while (true) {
    const std::size_t begin = w;
    if (r < buf_.size() && buf_[r] == '"') {
      ++r;
      while (true) {
        if (r == buf_.size()) {
          if (!std::getline(in_, next)) fail("unterminated quoted CSV field");
          ++line_;
          buf_ += '\n';
          buf_ += next;
        }
        const char c = buf_[r++];
        if (c != '"') {
          buf_[w++] = c;
        } else if (r < buf_.size() && buf_[r] == '"') {
          buf_[w++] = '"';
          ++r;
        } else {
          break;
        }
      }
      if (!at_line_end(r) && buf_[r] != sep_) fail("text after a closing quote in a CSV field");
    } else {
      while (!at_line_end(r) && buf_[r] != sep_) {
        if (buf_[r] == '"') fail("quote in the middle of an unquoted CSV field");
        buf_[w++] = buf_[r++];
      }
    }
    bounds.push_back(begin);
    bounds.push_back(w);
    if (at_line_end(r)) break;
    ++r;  // the separator
  }
  fields.clear();
  for (std::size_t i = 0; i < bounds.size(); i += 2) {
    fields.emplace_back(buf_.data() + bounds[i], bounds[i + 1] - bounds[i]);
  }
}

void for_each_csv_row(std::istream& in,
                      const std::function<void(const std::vector<std::string_view>&)>& fn) {
  CsvReader reader(in);
  std::vector<std::string_view> row;
  while (reader.read_row(row)) {
    if (row.size() == 1 && trim(row[0]).empty()) continue;
    try {
      fn(row);
    } catch (const ParseError& e) {
      throw ParseError(str_cat("line ", reader.line(), ": ", e.what()));
    }
  }
}

}  // namespace neat
