// svc::json: the fleet daemon's spec reader.  Full value model, ordered
// object members, typed fallback accessors, \u escapes, and hard
// rejection of malformed input with offramps::Error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sim/error.hpp"
#include "svc/json.hpp"

namespace {

namespace json = offramps::svc::json;

TEST(SvcJson, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").boolean);
  EXPECT_FALSE(json::parse("false").boolean);
  EXPECT_DOUBLE_EQ(json::parse("-12.5e1").number, -125.0);
  EXPECT_EQ(json::parse("\"hi\\n\\\"there\\\"\"").string, "hi\n\"there\"");
}

TEST(SvcJson, ParsesNestedDocument) {
  const json::Value v = json::parse(
      "  { \"workers\": 4, \"safe_stop\": false,\n"
      "    \"rigs\": [ {\"name\": \"a\", \"seed\": 7},\n"
      "               {\"name\": \"b\"} ] }  ");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_or("workers", 0.0), 4.0);
  EXPECT_FALSE(v.bool_or("safe_stop", true));
  const json::Value* rigs = v.find("rigs");
  ASSERT_NE(rigs, nullptr);
  ASSERT_TRUE(rigs->is_array());
  ASSERT_EQ(rigs->items.size(), 2u);
  EXPECT_EQ(rigs->items[0].string_or("name", ""), "a");
  EXPECT_DOUBLE_EQ(rigs->items[0].number_or("seed", 0.0), 7.0);
  // Absent member: the fallback is the answer, not an error.
  EXPECT_DOUBLE_EQ(rigs->items[1].number_or("seed", 42.0), 42.0);
}

TEST(SvcJson, ObjectMemberOrderPreserved) {
  const json::Value v = json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_EQ(v.fields.size(), 3u);
  EXPECT_EQ(v.fields[0].first, "z");
  EXPECT_EQ(v.fields[1].first, "a");
  EXPECT_EQ(v.fields[2].first, "m");
}

TEST(SvcJson, TypedFallbacksIgnoreWrongTypes) {
  const json::Value v = json::parse("{\"n\": \"not-a-number\", \"b\": 1}");
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), -1.0);
  EXPECT_TRUE(v.bool_or("b", true));  // number is not a bool
  EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
  // find() on a non-object yields nullptr.
  EXPECT_EQ(json::parse("[1]").find("x"), nullptr);
}

TEST(SvcJson, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), offramps::Error);
  EXPECT_THROW(json::parse("{"), offramps::Error);
  EXPECT_THROW(json::parse("[1, ]"), offramps::Error);
  EXPECT_THROW(json::parse("{\"a\" 1}"), offramps::Error);
  EXPECT_THROW(json::parse("\"unterminated"), offramps::Error);
  EXPECT_THROW(json::parse("tru"), offramps::Error);
  EXPECT_THROW(json::parse("1 2"), offramps::Error);      // trailing data
  for (const char* bad : {"\"\\u00\"", "\"\\u00zz\"", "\"\\ud800\"",
                          "\"\\udc00\"", "\"\\ud800\\u0041\""}) {
    try {
      json::parse(bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const offramps::Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad \\u escape"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SvcJson, WriterStringsAndUnicodeEscapesRoundTrip) {
  // Every ASCII byte, and a two-byte UTF-8 sequence, through the repo's
  // one JSON string writer and back through the reader.
  std::vector<std::string> table;
  for (int c = 0x00; c <= 0x7f; ++c) {
    table.push_back(std::string("a") + static_cast<char>(c) + "z");
  }
  table.emplace_back("caf\xc3\xa9");
  for (const std::string& text : table) {
    std::string doc;
    offramps::obs::append_json_string(doc, text);
    const json::Value v = json::parse(doc);
    ASSERT_EQ(v.kind, json::Value::Kind::kString) << doc;
    EXPECT_EQ(v.string, text) << doc;
  }
  EXPECT_EQ(json::parse("\"\\u0041\"").string, "A");
  EXPECT_EQ(json::parse("\"\\u00e9\"").string, "\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").string, "\xf0\x9f\x98\x80");
}

TEST(SvcJson, DepthCapAcceptsLimitRejectsBeyond) {
  const auto nested = [](int levels) {
    return std::string(levels, '[') + "1" + std::string(levels, ']');
  };
  // A scalar wrapped in exactly kMaxParseDepth containers is the deepest
  // legal document; one more level must fail with a parse error, not a
  // stack overflow.
  EXPECT_NO_THROW(json::parse(nested(json::kMaxParseDepth)));
  try {
    json::parse(nested(json::kMaxParseDepth + 1));
    FAIL() << "expected offramps::Error";
  } catch (const offramps::Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // Objects count against the same budget.
  std::string objects;
  for (int i = 0; i < json::kMaxParseDepth + 1; ++i) objects += "{\"k\":";
  objects += "0";
  for (int i = 0; i < json::kMaxParseDepth + 1; ++i) objects += "}";
  EXPECT_THROW(json::parse(objects), offramps::Error);
}

TEST(SvcJson, ErrorCarriesByteOffset) {
  try {
    json::parse("{\"a\": 1, !}");
    FAIL() << "expected offramps::Error";
  } catch (const offramps::Error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos)
        << "offset missing from: " << e.what();
  }
}

}  // namespace
