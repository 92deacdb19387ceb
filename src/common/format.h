// Locale-independent text formatting and parsing: the aligned tables
// imac_run and the examples print, and the number formats and strict
// parsers behind CSV reports and CLI flags.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace indexmac {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class TextTable {
 public:
  /// Sets the header row; column count of all rows must match it.
  void set_header(std::vector<std::string> header);

  /// Appends a data row.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a separator under the header.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places. Locale-independent: the
/// decimal separator is always '.', regardless of LC_NUMERIC — CSV reports
/// and golden byte-for-byte diffs must not drift on comma-decimal
/// locales (implemented on std::to_chars, never printf).
[[nodiscard]] std::string fmt_fixed(double v, int digits);

/// Shortest-form general formatting, equivalent to printf("%.*g") in the
/// C locale (std::to_chars, chars_format::general). Used for JSON number
/// emission.
[[nodiscard]] std::string fmt_general(double v, int precision);

/// Locale-independent full-string double parse (std::from_chars): the
/// whole of `text` must be one finite-syntax C-locale number. Throws
/// SimError naming `what` on empty, partial, or malformed input.
[[nodiscard]] double parse_double(const std::string& text, const char* what);

/// Strict full-string unsigned parse (std::from_chars): `text` must be
/// decimal digits only, with no sign or spaces, naming a value in
/// [0, max]. Throws SimError "<what> expects an unsigned integer ..."
/// otherwise. Every integer CLI flag goes through this.
[[nodiscard]] std::uint64_t parse_uint(const std::string& text, const char* what,
                                       std::uint64_t max = UINT64_MAX);

/// Formats "1.95x"-style speedup cells.
[[nodiscard]] std::string fmt_speedup(double v);

/// Formats a large count with thousands separators ("12,345,678").
[[nodiscard]] std::string fmt_count(std::uint64_t v);

}  // namespace indexmac
