#include "json/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace hammer::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_EQ(Value::parse("true").as_bool(), true);
  EXPECT_EQ(Value::parse("false").as_bool(), false);
  EXPECT_EQ(Value::parse("42").as_int(), 42);
  EXPECT_EQ(Value::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Value::parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Value::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, IntegersStayIntegral) {
  EXPECT_TRUE(Value::parse("9007199254740993").is_int());  // > 2^53
  EXPECT_EQ(Value::parse("9007199254740993").as_int(), 9007199254740993LL);
}

TEST(JsonParseTest, NestedStructures) {
  Value v = Value::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
}

TEST(JsonParseTest, StringEscapes) {
  Value v = Value::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParseTest, UnicodeEscapeMultibyte) {
  EXPECT_EQ(Value::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Value::parse(R"("中")").as_string(), "\xe4\xb8\xad");  // 中
}

TEST(JsonParseTest, WhitespaceTolerated) {
  Value v = Value::parse(" \n\t{ \"a\" :\r 1 } ");
  EXPECT_EQ(v.at("a").as_int(), 1);
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_TRUE(Value::parse("[]").as_array().empty());
  EXPECT_TRUE(Value::parse("{}").as_object().empty());
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW(Value::parse(""), ParseError);
  EXPECT_THROW(Value::parse("{"), ParseError);
  EXPECT_THROW(Value::parse("[1,]"), ParseError);
  EXPECT_THROW(Value::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Value::parse("nul"), ParseError);
  EXPECT_THROW(Value::parse("1 2"), ParseError);
  EXPECT_THROW(Value::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Value::parse("'single'"), ParseError);
}

TEST(JsonDumpTest, RoundTripPreservesValue) {
  const char* doc = R"({"arr":[1,2.5,"x",null,true],"num":-7,"obj":{"k":"v"}})";
  Value v = Value::parse(doc);
  Value again = Value::parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(JsonDumpTest, DeterministicKeyOrder) {
  Value v = object({{"zebra", 1}, {"apple", 2}});
  EXPECT_EQ(v.dump(), R"({"apple":2,"zebra":1})");
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  Value v(std::string("a\x01z"));
  EXPECT_EQ(v.dump(), "\"a\\u0001z\"");
}

TEST(JsonDumpTest, PrettyPrintIndents) {
  Value v = object({{"a", array({1, 2})}});
  std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": ["), std::string::npos);
}

TEST(JsonDumpTest, NonFiniteDoublesBecomeNull) {
  Value v(std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.dump(), "null");
}

TEST(JsonAccessTest, TypeMismatchThrows) {
  Value v = Value::parse("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), ParseError);
  EXPECT_THROW(v.at("a").as_string(), ParseError);
  EXPECT_THROW(v.at("missing"), NotFoundError);
}

TEST(JsonAccessTest, IntegralDoubleConvertsToInt) {
  EXPECT_EQ(Value(4.0).as_int(), 4);
  EXPECT_THROW(Value(4.5).as_int(), ParseError);
}

TEST(JsonAccessTest, GetWithDefaults) {
  Value v = Value::parse(R"({"i": 3, "s": "x", "b": true, "d": 2.5})");
  EXPECT_EQ(v.get_int("i", 0), 3);
  EXPECT_EQ(v.get_int("missing", 7), 7);
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_DOUBLE_EQ(v.get_double("d", 0.0), 2.5);
}

TEST(JsonAccessTest, SubscriptInsertsIntoNull) {
  Value v;
  v["key"] = 5;
  EXPECT_EQ(v.at("key").as_int(), 5);
}

TEST(JsonBuilderTest, ObjectAndArrayHelpers) {
  Value v = object({{"list", array({1, "two", 3.0})}});
  EXPECT_EQ(v.at("list").as_array().size(), 3u);
  EXPECT_EQ(v.at("list").as_array()[1].as_string(), "two");
}

// ---------------------------------------------------------------- strings

// The message Value::parse throws for `text`, or "" if it parses.
std::string parse_error(std::string_view text) {
  try {
    Value::parse(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonStringTest, SurrogatePairDecodesToOneFourByteSequence) {
  EXPECT_EQ(Value::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");  // 😀
  EXPECT_EQ(Value::parse(R"("a\uD83D\uDE00b")").as_string(), "a\xf0\x9f\x98\x80" "b");
}

TEST(JsonStringTest, LoneSurrogatesDecodeToReplacementCharacter) {
  const std::string fffd = "\xef\xbf\xbd";
  EXPECT_EQ(Value::parse(R"("\ud800")").as_string(), fffd);        // lone high half
  EXPECT_EQ(Value::parse(R"("\udc00")").as_string(), fffd);        // lone low half
  EXPECT_EQ(Value::parse(R"("\ud800x")").as_string(), fffd + "x");  // high, then no escape
  // A high half followed by a non-surrogate escape keeps that escape.
  EXPECT_EQ(Value::parse(R"("\ud800\u0041")").as_string(), fffd + "A");
  // Two high halves: neither has a partner.
  EXPECT_EQ(Value::parse(R"("\ud800\ud800")").as_string(), fffd + fffd);
  // A high half followed by a bad escape still fails on that escape.
  EXPECT_EQ(parse_error(R"("\ud800\u00zz")"), "parse error: invalid \\u escape at offset 12");
}

TEST(JsonStringTest, FastAndSlowPathsDecodeAlike) {
  // Escape-free strings take the span path; an escape anywhere sends the
  // rest through the escape decoder. Both must give the same bytes.
  const std::string hex(128, 'f');
  EXPECT_EQ(Value::parse("\"" + hex + "\"").as_string(), hex);
  EXPECT_EQ(Value::parse("\"" + hex.substr(1) + "\\u0066\"").as_string(), hex);
  EXPECT_EQ(Value::parse("\"\\u0066" + hex.substr(1) + "\"").as_string(), hex);
  EXPECT_EQ(Value::parse(R"("")").as_string(), "");
  EXPECT_EQ(Value::parse(R"("a/b")").as_string(), Value::parse(R"("a\/b")").as_string());
  Value keyed = Value::parse(R"({"k\u0065y": 1, "plain": 2})");
  EXPECT_EQ(keyed.at("key").as_int(), 1);
  EXPECT_EQ(keyed.at("plain").as_int(), 2);
}

TEST(JsonStringTest, FastAndSlowPathsFailAlike) {
  // Offsets are those of the byte after the offending one, wherever the
  // escape decoder took over.
  const std::string control = "parse error: unescaped control character in string at offset ";
  EXPECT_EQ(parse_error("\"ab\x01\""), control + "4");
  EXPECT_EQ(parse_error("\"\\nb\x01\""), control + "5");
  EXPECT_EQ(parse_error("\"ab\ncd\""), control + "4");
  EXPECT_EQ(parse_error("\"abc"), "parse error: unexpected end of input at offset 4");
  EXPECT_EQ(parse_error("\"a\\tc"), "parse error: unexpected end of input at offset 5");
  EXPECT_EQ(parse_error("\"abc\\"), "parse error: unexpected end of input at offset 5");
  EXPECT_EQ(parse_error("\""), "parse error: unexpected end of input at offset 1");
  EXPECT_EQ(parse_error(R"("a\qb")"), "parse error: invalid escape character at offset 4");
}

// ---------------------------------------------------------------- Object

std::vector<std::string> keys_of(const Object& obj) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : obj) keys.push_back(key);
  return keys;
}

TEST(JsonObjectTest, IteratesInKeyOrderWhateverTheInsertionOrder) {
  const std::vector<std::string> sorted = {"", "a", "ab", "b", "sig", "z"};
  std::vector<std::string> order = sorted;
  do {
    Object obj;
    for (const std::string& key : order) obj[key] = key;
    ASSERT_EQ(keys_of(obj), sorted);
    for (const auto& [key, value] : obj) EXPECT_EQ(value.as_string(), key);
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(keys_of(Value::parse(R"({"z":1,"b":2,"a":3})").as_object()),
            (std::vector<std::string>{"a", "b", "z"}));
  EXPECT_EQ(Value::parse(R"({"z":1,"b":2,"a":3})").dump(), R"({"a":3,"b":2,"z":1})");
}

TEST(JsonObjectTest, SubscriptInsertsNullAndFindsExisting) {
  Object obj;
  EXPECT_TRUE(obj.empty());
  EXPECT_TRUE(obj["x"].is_null());
  EXPECT_EQ(obj.size(), 1u);
  obj["x"] = 3;
  EXPECT_EQ(obj["x"].as_int(), 3);
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.count("x"), 1u);
  EXPECT_EQ(obj.count("y"), 0u);
  EXPECT_EQ(obj.find("y"), obj.end());
  ASSERT_NE(obj.find("x"), obj.end());
  EXPECT_EQ(obj.find("x")->second.as_int(), 3);
}

TEST(JsonObjectTest, TextParseKeepsTheLastDuplicate) {
  Value v = Value::parse(R"({"a":1,"b":2,"a":3})");
  EXPECT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.at("a").as_int(), 3);
  EXPECT_EQ(v.dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(Value::parse(R"({"k":1,"k":2,"k":3})").dump(), R"({"k":3})");
}

TEST(JsonObjectTest, MembersConstructorSortsAndKeepsTheLastDuplicate) {
  std::vector<Object::value_type> members;
  members.emplace_back("c", 1);
  members.emplace_back("a", 2);
  members.emplace_back("c", 3);
  members.emplace_back("b", 4);
  Object obj(std::move(members));
  EXPECT_EQ(keys_of(obj), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(obj.find("c")->second.as_int(), 3);
}

TEST(JsonObjectTest, EraseAndEquality) {
  Value a = Value::parse(R"({"x":1,"y":[1,2],"z":{"k":null}})");
  Value b = object({{"z", object({{"k", nullptr}})}, {"y", array({1, 2})}, {"x", 1}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.as_object().erase("y"), 1u);
  EXPECT_EQ(a.as_object().erase("y"), 0u);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.dump(), R"({"x":1,"z":{"k":null}})");
  b.as_object().erase(b.as_object().find("y"));
  EXPECT_EQ(a, b);
  b["x"] = 2;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace hammer::json
