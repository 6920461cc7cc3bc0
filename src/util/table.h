// Aligned-table and JSON reporters for benchmark output.
//
// Every bench binary prints (a) a human-readable aligned table — the "figure
// row/series" the paper would show — or (b) with --json, the same rows as a
// machine-readable document. Both views are produced from the same Table
// object.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace pnbbst {

// Escapes a string for embedding in a JSON string literal (quotes,
// backslashes, and control characters). Shared by Table::to_json and the
// bench Reporter's --json document.
std::string json_escape(const std::string& s);

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends one row; cells may be fewer than header (padded empty).
  void add_row(std::vector<std::string> cells);

  // Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string num(std::uint64_t v);
  static std::string num(std::int64_t v);

  std::size_t rows() const noexcept { return rows_.size(); }
  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  // Renders aligned columns to `out` (default stdout).
  void print(std::FILE* out = stdout) const;

  // Renders a JSON array of row objects keyed by the header; cells that
  // parse entirely as numbers are emitted unquoted. `indent` spaces prefix
  // each line (so a caller can nest the array in a larger document).
  std::string to_json(int indent = 0) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pnbbst
