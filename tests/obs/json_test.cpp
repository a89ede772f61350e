// Edge-case coverage for the obs JSON reader/writer pair: the semantics the
// artifact loaders rely on (documented in src/obs/json.hpp) and the
// writer/parser round-trip at the limits of double precision.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace swiftest::obs {
namespace {

// --- duplicate object keys -------------------------------------------------

TEST(JsonUtil, DuplicateKeysLastValueWins) {
  const auto doc = parse_json(R"({"k": 1, "k": 2, "k": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->members().size(), 1u);
  EXPECT_DOUBLE_EQ(doc->get_number("k", -1.0), 3.0);
}

TEST(JsonUtil, DuplicateKeysLastTypeWins) {
  const auto doc = parse_json(R"({"k": [1, 2], "k": "text"})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* v = doc->get("k");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->type(), JsonValue::Type::kString);
  EXPECT_EQ(v->as_string(), "text");
}

// --- nesting depth ---------------------------------------------------------

std::string nested_arrays(int depth) {
  std::string text;
  text.reserve(static_cast<std::size_t>(depth) * 2 + 1);
  for (int i = 0; i < depth; ++i) text += '[';
  text += '1';
  for (int i = 0; i < depth; ++i) text += ']';
  return text;
}

TEST(JsonUtil, NestingAtDepthLimitParses) {
  const auto doc = parse_json(nested_arrays(kMaxJsonDepth));
  ASSERT_TRUE(doc.has_value());
  const JsonValue* v = &*doc;
  for (int i = 0; i < kMaxJsonDepth; ++i) {
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->as_array().size(), 1u);
    v = &v->as_array().front();
  }
  EXPECT_DOUBLE_EQ(v->as_number(), 1.0);
}

TEST(JsonUtil, NestingBeyondDepthLimitRejected) {
  std::string error;
  const auto doc = parse_json(nested_arrays(kMaxJsonDepth + 1), &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(JsonUtil, DeepObjectNestingRejectedNotCrashing) {
  // Mixed object/array nesting far past the limit must fail cleanly, not
  // overflow the parse stack.
  std::string text;
  for (int i = 0; i < 4096; ++i) text += R"({"a":[)";
  const auto doc = parse_json(text);
  EXPECT_FALSE(doc.has_value());
}

// --- \uXXXX escapes and surrogates -----------------------------------------

TEST(JsonUtil, SurrogatePairDecodesToOneCodePoint) {
  // U+1F600 as the surrogate pair 😀 -> 4-byte UTF-8.
  const auto doc = parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonUtil, LoneHighSurrogateBecomesReplacement) {
  const auto doc = parse_json("\"a\\ud800z\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\xEF\xBF\xBDz");
}

TEST(JsonUtil, LoneLowSurrogateBecomesReplacement) {
  const auto doc = parse_json("\"\\udc00\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xEF\xBF\xBD");
}

TEST(JsonUtil, HighSurrogateBeforeNonSurrogateEscapeKeepsBoth) {
  // The high surrogate degrades to U+FFFD and the following escape still
  // decodes on its own.
  const auto doc = parse_json("\"\\ud800\\u0041\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xEF\xBF\xBD"
                              "A");
}

TEST(JsonUtil, BasicMultilingualPlaneEscapeDecodes) {
  const auto doc = parse_json("\"\\u00e9\\u4e2d\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonUtil, MalformedUnicodeEscapeIsAnError) {
  std::string error;
  EXPECT_FALSE(parse_json("\"\\u12g4\"", &error).has_value());
  EXPECT_FALSE(parse_json("\"\\u12\"").has_value());
}

// --- exact u64 round-trip --------------------------------------------------

TEST(JsonUtil, U64ExactAtTwoPow63) {
  // 2^63 is not representable as a distinct double neighbour-free region:
  // doubles hold 53 mantissa bits, so the raw token must survive.
  constexpr std::uint64_t kTwoPow63 = 1ull << 63;
  std::string text;
  append_u64(text, kTwoPow63);
  EXPECT_EQ(text, "9223372036854775808");
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_u64(), kTwoPow63);
}

TEST(JsonUtil, U64ExactAtMaxAndNeighbours) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{(1ull << 53) + 1},
        std::uint64_t{~0ull - 1}, std::uint64_t{~0ull}}) {
    std::string text;
    append_u64(text, v);
    const auto doc = parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc->as_u64(), v) << text;
  }
}

TEST(JsonUtil, U64FallbackForNonIntegerTokens) {
  EXPECT_EQ(parse_json("-5")->as_u64(7), 7u);       // negative -> fallback
  EXPECT_EQ(parse_json("2.5")->as_u64(), 2u);       // fraction -> double read
  EXPECT_EQ(parse_json("1e3")->as_u64(), 1000u);    // exponent -> double read
  EXPECT_EQ(parse_json(R"("9")")->as_u64(4), 4u);   // wrong type -> fallback
  // Not below 2^64: no u64 holds the value, so the fallback (casting the
  // double would be undefined behaviour).
  EXPECT_EQ(parse_json("1e30")->as_u64(6), 6u);
  EXPECT_EQ(parse_json("18446744073709551616.0")->as_u64(6), 6u);
}

// --- number grammar --------------------------------------------------------

TEST(JsonUtil, NonJsonNumberTokensRejected) {
  // std::from_chars accepts all of these; the JSON number grammar does not.
  for (const std::string token :
       {"inf", "-inf", "infinity", ".5", "01", "1.", "-", "+1", "1e", "1e+", "-.5"}) {
    std::string error;
    EXPECT_FALSE(parse_json(token, &error).has_value()) << token;
    EXPECT_FALSE(error.empty()) << token;
    EXPECT_FALSE(parse_json("[" + token + "]").has_value()) << token;
    EXPECT_FALSE(parse_json(R"({"v":)" + token + "}").has_value()) << token;
  }
  for (const std::string token : {"0", "-0", "10", "0.5", "-1.25e-3", "1E+2", "2e0"}) {
    EXPECT_TRUE(parse_json("[" + token + "]").has_value()) << token;
  }
}

TEST(JsonUtil, NumberRangeUnderflowsToSignedZeroAndRejectsOverflow) {
  // RFC 8259 §6 lets a parser limit range: a value too small for a double
  // reads as a signed zero (as strtod does), one too large is refused with
  // its own reason rather than "bad number".
  for (const std::string token : {"1e-400", "-1e-400", "1000e-400", "0.001e-330",
                                  "-0.5e-999999999999999999999"}) {
    std::string error;
    const auto doc = parse_json("[" + token + "]", &error);
    ASSERT_TRUE(doc.has_value()) << token << ": " << error;
    const double v = doc->as_array().at(0).as_number(1.0);
    EXPECT_EQ(v, 0.0) << token;
    EXPECT_EQ(std::signbit(v), token[0] == '-') << token;
  }
  const std::vector<std::string> too_large = {"1e400", "-1e400", "0.001e400",
                                              "123456e999999999999999",
                                              "1" + std::string(400, '0')};
  for (const std::string& token : too_large) {
    std::string error;
    EXPECT_FALSE(parse_json(token, &error).has_value()) << token;
    EXPECT_EQ(error, "number out of range at offset 0") << token;
    EXPECT_FALSE(parse_json("[" + token + "]").has_value()) << token;
  }
  // The edges a double still holds parse to themselves.
  EXPECT_EQ(parse_json("1.7976931348623157e308")->as_number(),
            std::numeric_limits<double>::max());
  EXPECT_GT(parse_json("4e-320")->as_number(), 0.0);
}

TEST(JsonUtil, OnlyJsonWhitespaceSkipped) {
  // JSON whitespace is space, tab, LF and CR; std::isspace also takes \v, \f.
  for (const std::string text : {"\v1", "[1,\f2]", "1\v", "{\f}"}) {
    std::string error;
    EXPECT_FALSE(parse_json(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  EXPECT_TRUE(parse_json(" \t\r\n[ 1 ,\t2 ]\r\n").has_value());
}

// --- writer/reader round-trip misc -----------------------------------------

TEST(JsonUtil, NonFiniteDoublesRenderAsQuotedStrings) {
  std::string text;
  append_double(text, std::numeric_limits<double>::infinity());
  EXPECT_EQ(text, "\"Infinity\"");
  text.clear();
  append_double(text, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(text, "\"NaN\"");
}

TEST(JsonUtil, EscapedStringRoundTrips) {
  const std::string raw = "line\nbreak \"quote\" back\\slash \x01 tab\t";
  std::string text;
  append_json_string(text, raw);
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), raw);
}

// --- loader helpers --------------------------------------------------------

TEST(JsonUtil, ReadFileReadsBytesAndRejectsMissingOrDirectory) {
  const std::string path = ::testing::TempDir() + "/json_read_file.txt";
  const std::string content("a\nb\0c", 5);
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << content;
  }
  EXPECT_EQ(read_file(path), content);
  for (const std::string& bad : {::testing::TempDir() + "/json_no_such_file",
                                 ::testing::TempDir()}) {
    std::string error;
    EXPECT_FALSE(read_file(bad, &error).has_value()) << bad;
    EXPECT_EQ(error, "cannot read " + bad);
  }
}

TEST(JsonUtil, JsonlWalkerNumbersLinesAndStopsAtFirstBadLine) {
  std::vector<double> seen;
  const auto visit = [&seen](const JsonValue& object, std::string* why) {
    if (object.get("v") == nullptr) {
      *why = "no v";
      return false;
    }
    seen.push_back(object.get_number("v", 0.0));
    return true;
  };
  std::string error;
  EXPECT_TRUE(for_each_jsonl_object("{\"v\":1}\n\n{\"v\":2}", visit, &error));
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
  for (const auto& [text, want] :
       {std::pair<std::string, std::string>{"{\"v\":1}\n\n[1]\n", "line 3: not a JSON object"},
        {"{\"v\":1}\n{\"w\":1}\n", "line 2: no v"},
        {"{\"v\":1}\n{\"v\":\n", "line 2: "}}) {
    seen.clear();
    EXPECT_FALSE(for_each_jsonl_object(text, visit, &error)) << text;
    EXPECT_EQ(error.rfind(want, 0), 0u) << error;
  }
}

TEST(JsonUtil, RequireFieldsNamesFirstMissingOrMistypedField) {
  const auto doc = parse_json(R"({"n": 1, "s": "x"})");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_TRUE(require_fields(
      *doc, {{"n", JsonValue::Type::kNumber}, {"s", JsonValue::Type::kString}}, &error));
  EXPECT_FALSE(require_fields(
      *doc, {{"n", JsonValue::Type::kNumber}, {"m", JsonValue::Type::kNumber}}, &error));
  EXPECT_EQ(error, "missing field \"m\"");
  EXPECT_FALSE(require_fields(*doc, {{"s", JsonValue::Type::kNumber}}, &error));
  EXPECT_EQ(error, "field \"s\" is not a number");
}

TEST(JsonUtil, TrailingGarbageRejected) {
  std::string error;
  EXPECT_FALSE(parse_json("{} extra", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

}  // namespace
}  // namespace swiftest::obs
