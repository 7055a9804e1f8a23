// obs::json parser unit tests: strictness (trailing garbage, malformed
// escapes), integer exactness beyond double's 2^53 range, \uXXXX
// decoding, and the forward-compatible lookup helpers the readers lean
// on.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace marcopolo::obs::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").boolean(), true);
  EXPECT_EQ(parse("false").boolean(), false);
  EXPECT_EQ(parse("\"hi\"").str(), "hi");
  EXPECT_EQ(parse("42").u64(), 42u);
  EXPECT_EQ(parse("-7").i64(), -7);
  EXPECT_EQ(parse("0.5").number(), 0.5);
  EXPECT_EQ(parse("1e3").number(), 1000.0);
  EXPECT_EQ(parse("  3  ").u64(), 3u);  // surrounding whitespace ok
}

TEST(JsonParse, IntegerTokensStayExactPast2To53) {
  // Steady-clock nanoseconds on a long-uptime host: 2^53 + 1 is not
  // representable as a double, so a double-only parser corrupts it.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  const Value v = parse(std::to_string(big));
  EXPECT_EQ(v.u64(), big);
  EXPECT_TRUE(std::holds_alternative<std::uint64_t>(v.v));

  const Value top = parse("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ(top.u64(), ~std::uint64_t{0});

  const Value neg = parse("-9223372036854775807");
  EXPECT_EQ(neg.i64(), -9223372036854775807LL);
}

TEST(JsonParse, NumberCoercions) {
  EXPECT_EQ(parse("42").number(), 42.0);     // int token as double
  EXPECT_EQ(parse("-2").u64(), 0u);          // negative clamps to 0
  EXPECT_EQ(parse("41.9").u64(), 41u);       // double truncates
  EXPECT_EQ(parse("42").i64(), 42);
}

TEST(JsonParse, ObjectsAndArrays) {
  const Value doc = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.is_object());
  const Array& a = doc.at("a").array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].u64(), 1u);
  EXPECT_EQ(a[2].at("b").boolean(), true);
  EXPECT_EQ(doc.at("c").str(), "x");
  EXPECT_TRUE(parse("{}").object().empty());
  EXPECT_TRUE(parse("[]").array().empty());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d")").str(), "a\"b\\c/d");
  EXPECT_EQ(parse(R"("\n\r\t\b\f")").str(), "\n\r\t\b\f");
  EXPECT_EQ(parse(R"("\u0041")").str(), "A");
  // Non-ASCII code points decode to UTF-8.
  EXPECT_EQ(parse(R"("\u00e9")").str(), "\xc3\xa9");      // é
  EXPECT_EQ(parse(R"("\u20ac")").str(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, EscapeRoundTripThroughJsonEscape) {
  const std::string nasty = "quote\" back\\slash \n\t\x01 plain";
  const Value v = parse("\"" + json_escape(nasty) + "\"");
  EXPECT_EQ(v.str(), nasty);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{\"a\": 1"), ParseError);     // unexpected end
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);     // missing colon
  EXPECT_THROW(parse("[1, ]"), ParseError);         // dangling comma
  EXPECT_THROW(parse("1 2"), ParseError);           // trailing garbage
  EXPECT_THROW(parse("\"\\x\""), ParseError);       // unknown escape
  EXPECT_THROW(parse("\"\\u00g0\""), ParseError);   // bad hex digit
  EXPECT_THROW(parse("nul"), ParseError);           // truncated literal
  EXPECT_THROW(parse("{1: 2}"), ParseError);        // non-string key
}

TEST(JsonParse, NestingDepthIsBoundedNotAStackOverflow) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  // Exactly at the bound parses, arrays and objects alike...
  const Value deepest = parse(nested(kMaxDepth, '[', ']'));
  EXPECT_TRUE(deepest.is_array());
  std::string objects;
  for (std::size_t i = 0; i < kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kMaxDepth, '}');
  EXPECT_TRUE(parse(objects).is_object());
  // ...one level past it is a ParseError, and so is a ~200 KB document
  // 100,000 levels deep (an unbounded descent overflows the stack).
  EXPECT_THROW(parse(nested(kMaxDepth + 1, '[', ']')), ParseError);
  try {
    (void)parse(nested(100'000, '[', ']'));
    FAIL() << "100,000-deep document parsed";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.offset(), kMaxDepth);
    EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos);
  }
}

TEST(JsonParse, ParseErrorCarriesByteOffset) {
  try {
    (void)parse("{\"a\": 1");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 7u);
    EXPECT_NE(std::string(e.what()).find("byte 7"), std::string::npos);
  }
}

TEST(JsonValue, ForwardCompatibleLookups) {
  const Value doc = parse(R"({"n": 5, "f": 2.5, "b": true, "s": "x"})");
  EXPECT_EQ(doc.find("n")->u64(), 5u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.u64_or("n", 0), 5u);
  EXPECT_EQ(doc.u64_or("missing", 9), 9u);
  EXPECT_EQ(doc.u64_or("s", 9), 9u);  // wrong kind -> fallback
  EXPECT_EQ(doc.number_or("f", 0.0), 2.5);
  EXPECT_EQ(doc.number_or("missing", 1.25), 1.25);
  EXPECT_EQ(doc.bool_or("b", false), true);
  EXPECT_EQ(doc.bool_or("missing", true), true);
  EXPECT_EQ(doc.string_or("s", ""), "x");
  EXPECT_EQ(doc.string_or("missing", "dflt"), "dflt");
  EXPECT_THROW((void)doc.at("missing"), std::out_of_range);
}

}  // namespace
}  // namespace marcopolo::obs::json
