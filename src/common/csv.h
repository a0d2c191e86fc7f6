// Minimal CSV reading/writing used for network, trajectory, and result
// persistence. Handles RFC-4180-style quoting for fields containing the
// separator, quotes, or newlines.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace neat {

/// Writes rows of fields as CSV to an std::ostream the writer does not own.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char sep = ',') : out_(out), sep_(sep) {}

  /// Writes one row; fields are quoted only when necessary.
  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  char sep_;
};

/// Reads CSV rows from an std::istream the reader does not own, one physical
/// line at a time into a reused buffer. A trailing '\r' ends a line like
/// '\n'. A line without '"' is split on the separator as is; a line with one
/// goes through the RFC-4180 path, which pulls further lines while a quoted
/// field is open.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in, char sep = ',') : in_(in), sep_(sep) {}

  /// Reads the next row into `fields`; returns false at end of input. The
  /// views stay valid until the next call. Throws neat::ParseError, naming
  /// the line, on malformed quoting.
  bool read_row(std::vector<std::string_view>& fields);

  /// The 1-based physical line where the row last read starts.
  [[nodiscard]] std::size_t line() const { return row_line_; }

 private:
  void split_quoted(std::vector<std::string_view>& fields);

  std::istream& in_;
  char sep_;
  std::string buf_;  // the current row's text; quoted fields are unescaped in place
  std::size_t line_ = 0;
  std::size_t row_line_ = 0;
};

/// Calls `fn` with every row of `in` except blank ones (one field of only
/// whitespace): the loop behind every CSV loader. A neat::ParseError thrown
/// by `fn` is rethrown as "line <n>: <message>", naming the row's first line.
void for_each_csv_row(std::istream& in,
                      const std::function<void(const std::vector<std::string_view>&)>& fn);

/// Quotes a single field if needed (exposed for testing).
[[nodiscard]] std::string csv_escape(const std::string& field, char sep = ',');

}  // namespace neat
