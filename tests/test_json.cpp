// JSON-subset parser: values, structure, stable dumping, and line-numbered
// error reporting.
#include "common/json.h"

#include <gtest/gtest.h>

#include "locale_test_util.h"

namespace indexmac {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e2").as_number(), -150.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const JsonValue doc = parse_json(R"({
    "name": "tiny",
    "unroll": [1, 2, 4],
    "nested": {"deep": [true, null]}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "tiny");
  const auto& unroll = doc.at("unroll").as_array();
  ASSERT_EQ(unroll.size(), 3u);
  EXPECT_EQ(unroll[2].as_uint(), 4u);
  EXPECT_TRUE(doc.at("nested").at("deep").as_array()[1].is_null());
  EXPECT_EQ(doc.get("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), SimError);
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_THROW((void)parse_json("\"\\u0041\""), SimError);  // \u is unsupported
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), SimError);
  EXPECT_THROW((void)parse_json("{"), SimError);
  EXPECT_THROW((void)parse_json("[1,]"), SimError);
  EXPECT_THROW((void)parse_json("{\"a\": 1,}"), SimError);
  EXPECT_THROW((void)parse_json("{\"a\": 1} trailing"), SimError);
  EXPECT_THROW((void)parse_json("{'a': 1}"), SimError);
  EXPECT_THROW((void)parse_json("1.2.3"), SimError);
  EXPECT_THROW((void)parse_json("{\"a\": 1, \"a\": 2}"), SimError);  // duplicate key
  EXPECT_THROW((void)parse_json("\"unterminated"), SimError);
}

TEST(Json, RejectsNestingDeeperThan64Levels) {
  // One recursion per '[' or '{': without a bound, 100,000 levels overflow
  // the stack instead of failing with a SimError.
  const auto nested = [](std::size_t depth, const std::string& open, const std::string& close) {
    std::string out;
    for (std::size_t i = 0; i < depth; ++i) out += open;
    out += "1";
    for (std::size_t i = 0; i < depth; ++i) out += close;
    return out;
  };
  for (const std::string& doc :
       {nested(100000, "[", "]"), nested(100000, "{\"a\": ", "}"), nested(65, "[", "]")}) {
    try {
      (void)parse_json(doc);
      ADD_FAILURE() << "accepted " << doc.substr(0, 16);
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("deeper than 64"), std::string::npos) << e.what();
    }
  }
  const JsonValue deepest = parse_json(nested(64, "[", "]"));
  const JsonValue* v = &deepest;
  for (int i = 0; i < 64; ++i) v = &v->as_array().at(0);
  EXPECT_EQ(v->as_uint(), 1u);
}

TEST(Json, ErrorsCarryLineNumbers) {
  try {
    (void)parse_json("{\n  \"a\": 1,\n  bogus\n}");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Json, AsUintRejectsNonIntegers) {
  EXPECT_THROW((void)parse_json("1.5").as_uint(), SimError);
  EXPECT_THROW((void)parse_json("-1").as_uint(), SimError);
  EXPECT_EQ(parse_json("0").as_uint(), 0u);
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW((void)parse_json("42").as_string(), SimError);
  EXPECT_THROW((void)parse_json("\"x\"").as_number(), SimError);
  EXPECT_THROW((void)parse_json("[1]").members(), SimError);
}

TEST(Json, DumpRoundTrips) {
  const std::string text = R"({
  "name": "t",
  "grid": [1, 2],
  "on": true,
  "ratio": 0.5,
  "none": null
})";
  const JsonValue doc = parse_json(text);
  const std::string dumped = doc.dump();
  // Dump parses back to an equivalent document, and dumping is a fixpoint.
  const JsonValue again = parse_json(dumped);
  EXPECT_EQ(again.dump(), dumped);
  EXPECT_EQ(again.at("grid").as_array()[1].as_uint(), 2u);
  EXPECT_DOUBLE_EQ(again.at("ratio").as_number(), 0.5);
}

TEST(Json, NumbersAreLocaleIndependent) {
  // std::stod/printf would honour a comma-decimal LC_NUMERIC: stod("0.5")
  // stops at the '.' and yields 0, silently truncating every fractional
  // spec constant. The charconv-based parser and dumper must not.
  testutil::ScopedCommaLocale locale;
  if (!locale.active()) GTEST_SKIP() << "no comma-decimal locale installed";
  const JsonValue doc = parse_json(R"({"ratio": 0.5, "tiny": 1.25e-3})");
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(doc.at("tiny").as_number(), 1.25e-3);
  JsonValue out = JsonValue::make_object();
  out.set("ratio", JsonValue(0.5));
  EXPECT_EQ(out.dump(), "{\n  \"ratio\": 0.5\n}");
  // A comma can never sneak in as a decimal separator on input either.
  EXPECT_THROW((void)parse_json(R"({"x": 0,5})"), SimError);
}

TEST(Json, BuilderProducesStableText) {
  JsonValue obj = JsonValue::make_object();
  obj.set("b", JsonValue(1.0));
  obj.set("a", JsonValue(std::string("x")));
  JsonValue arr = JsonValue::make_array();
  arr.push_back(JsonValue(true));
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\n  \"b\": 1,\n  \"a\": \"x\",\n  \"list\": [\n    true\n  ]\n}");
}

}  // namespace
}  // namespace indexmac
