#include "common/format.h"

#include <charconv>
#include <limits>
#include <sstream>
#include <system_error>

#include "common/error.h"

namespace indexmac {

void TextTable::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void TextTable::add_row(std::vector<std::string> row) {
  IMAC_CHECK(header_.empty() || row.size() == header_.size(),
             "table row width must match header width");
  rows_.push_back(std::move(row));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream out;
  auto emit = [&out, &widths](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << row[i] << std::string(widths[i] - row[i].size(), ' ');
      if (i + 1 < row.size()) out << "  ";
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i) total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
  return out.str();
}

namespace {

/// std::to_chars with a given chars_format; the buffer covers any double
/// at the precisions used in this codebase (<= 64 significant chars).
std::string to_chars_double(double v, std::chars_format fmt, int precision) {
  char buf[512];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v, fmt, precision);
  IMAC_ASSERT(ec == std::errc{}, "double formatting buffer exhausted");
  return std::string(buf, ptr);
}

}  // namespace

std::string fmt_fixed(double v, int digits) {
  return to_chars_double(v, std::chars_format::fixed, digits);
}

std::string fmt_general(double v, int precision) {
  return to_chars_double(v, std::chars_format::general, precision);
}

double parse_double(const std::string& text, const char* what) {
  double value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  IMAC_CHECK(ec == std::errc{} && ptr == last && !text.empty(),
             std::string("bad ") + what + " \"" + text + "\" (expected a C-locale number)");
  return value;
}

std::uint64_t parse_uint(const std::string& text, const char* what, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  // from_chars takes digits only: a sign or a leading space fails the
  // parse instead of wrapping or being skipped the way strtoull does.
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || value > max) {
    const std::string bound = max == std::numeric_limits<std::uint64_t>::max()
                                  ? ""
                                  : " at most " + std::to_string(max);
    raise(std::string(what) + " expects an unsigned integer" + bound + ", got \"" + text +
          "\"");
  }
  return value;
}

std::string fmt_speedup(double v) { return fmt_fixed(v, 2) + "x"; }

std::string fmt_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    out += digits[i];
    const std::size_t rem = n - 1 - i;
    if (rem > 0 && rem % 3 == 0) out += ',';
  }
  return out;
}

}  // namespace indexmac
