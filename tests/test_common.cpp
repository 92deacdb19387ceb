// Tests for the common support module (table formatting, number
// formatting/parsing incl. locale independence, error plumbing).
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/format.h"
#include "locale_test_util.h"

namespace indexmac {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.set_header({"a", "long-header", "c"});
  t.add_row({"1", "x", "third"});
  t.add_row({"22", "yy", "z"});
  const std::string out = t.to_string();
  // Every line has the same prefix structure; the separator spans the
  // header width.
  EXPECT_NE(out.find("a   long-header  c"), std::string::npos);
  EXPECT_NE(out.find("1   x            third"), std::string::npos);
  EXPECT_NE(out.find("22  yy           z"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SimError);
}

TEST(TextTable, WorksWithoutHeader) {
  TextTable t;
  t.add_row({"x", "y"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.to_string().find("x  y"), std::string::npos);
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
}

TEST(Format, Speedup) { EXPECT_EQ(fmt_speedup(1.946), "1.95x"); }

TEST(Format, GeneralMatchesPrintfGInTheCLocale) {
  EXPECT_EQ(fmt_general(0.5, 10), "0.5");
  EXPECT_EQ(fmt_general(1234567.0, 10), "1234567");
  EXPECT_EQ(fmt_general(1.0 / 3.0, 10), "0.3333333333");
  EXPECT_EQ(fmt_general(1e-7, 10), "1e-07");
}

TEST(Format, ParseDoubleIsStrict) {
  EXPECT_EQ(parse_double("123.45", "x"), 123.45);
  EXPECT_EQ(parse_double("-2e3", "x"), -2000.0);
  EXPECT_EQ(parse_double("17", "x"), 17.0);
  for (const char* bad : {"", " 1", "1 ", "1x", "1,5", "--1", "1e", "1e999"})
    EXPECT_THROW((void)parse_double(bad, "x"), SimError) << bad;
}

TEST(Format, ParseUintTakesDigitsUpToItsBound) {
  EXPECT_EQ(parse_uint("0", "--threads", 1024), 0u);
  EXPECT_EQ(parse_uint("1024", "--threads", 1024), 1024u);
  EXPECT_EQ(parse_uint("18446744073709551615", "--max-steps"), UINT64_MAX);
  // A sign or a space is not skipped, and -1 does not wrap to the maximum.
  for (const char* bad : {"", " 4", "4 ", "+4", "-1", "0x10", "12x", "1025",
                          "18446744073709551616"})
    EXPECT_THROW((void)parse_uint(bad, "--threads", 1024), SimError) << bad;
  try {
    (void)parse_uint("70000", "--threads", 1024);
    FAIL() << "70000 accepted";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "--threads expects an unsigned integer at most 1024, got \"70000\"");
  }
}

TEST(Format, NumberFormattingIgnoresCommaDecimalLocales) {
  // The golden-file byte-for-byte guarantee: under de_DE-style LC_NUMERIC
  // (',' decimal separator) the printf family drifts, fmt_* must not.
  testutil::ScopedCommaLocale locale;
  if (!locale.active()) GTEST_SKIP() << "no comma-decimal locale installed";
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_general(0.5, 10), "0.5");
  EXPECT_EQ(fmt_speedup(1.946), "1.95x");
  EXPECT_EQ(parse_double("123.45", "x"), 123.45);   // '.' always accepted
  EXPECT_THROW((void)parse_double("123,45", "x"), SimError);  // ',' never
}

TEST(Format, CountsWithSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567890), "1,234,567,890");
}

TEST(Error, RaiseThrowsSimError) {
  EXPECT_THROW(raise("boom"), SimError);
  try {
    raise("specific message");
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("specific message"), std::string::npos);
  }
}

TEST(Error, CheckMacroIncludesMessage) {
  // Each macro's full what(), with the message built only when it fails.
  int built = 0;
  const auto message = [&built] {
    ++built;
    return "the condition text " + std::to_string(built);
  };
  IMAC_CHECK(1 + 1 == 2, message());
  IMAC_ASSERT(1 + 1 == 2, message());
  EXPECT_EQ(built, 0);
  try {
    IMAC_CHECK(false, message());
    FAIL();
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "check failed: the condition text 1");
  }
  try {
    IMAC_ASSERT(false, message());
    FAIL();
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "internal invariant: the condition text 2");
  }
  EXPECT_EQ(built, 2);
  // IMAC_CHECK's message is an unparenthesized `std::string + msg` chain.
  try {
    IMAC_CHECK(false, "got " + std::to_string(7) + " of " + std::to_string(8));
    FAIL();
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "check failed: got 7 of 8");
  }
}

}  // namespace
}  // namespace indexmac
