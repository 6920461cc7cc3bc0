#include "util/table.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>

namespace pnbbst {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string Table::num(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

void Table::print(std::FILE* out) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : header_[c];
      std::fprintf(out, "%-*s%s", static_cast<int>(width[c]), cell.c_str(),
                   c + 1 == header_.size() ? "\n" : "  ");
    }
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  for (std::size_t i = 0; i + 2 < total; ++i) std::fputc('-', out);
  std::fputc('\n', out);
  for (const auto& r : rows_) print_row(r);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

// A cell is emitted unquoted only if it is a valid JSON number token per the
// RFC 8259 grammar. A looser strtod check would also pass "nan"/"inf"/hex —
// a 0/0 bench cell must come out as the string "nan", not break the
// document.
static bool is_number(const std::string& s) {
  std::size_t i = 0;
  const std::size_t n = s.size();
  auto digits = [&] {
    std::size_t count = 0;
    while (i < n && s[i] >= '0' && s[i] <= '9') ++i, ++count;
    return count;
  };
  if (i < n && s[i] == '-') ++i;
  const std::size_t int_start = i;
  const std::size_t int_digits = digits();
  if (int_digits == 0) return false;
  if (int_digits > 1 && s[int_start] == '0') return false;  // no leading 0s
  if (i < n && s[i] == '.') {
    ++i;
    if (digits() == 0) return false;
  }
  if (i < n && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < n && (s[i] == '+' || s[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == n;
}

std::string Table::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = pad + "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += pad + "  {";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < rows_[i].size() ? rows_[i][c] : "";
      if (c) out += ", ";
      out += '"' + json_escape(header_[c]) + "\": ";
      if (is_number(cell)) {
        out += cell;
      } else {
        out += '"' + json_escape(cell) + '"';
      }
    }
    out += i + 1 == rows_.size() ? "}\n" : "},\n";
  }
  out += pad + "]";
  return out;
}

}  // namespace pnbbst
