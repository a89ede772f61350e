#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace swiftest::obs {
namespace {

/// Whether a grammatical JSON number token is below 1 in magnitude, read
/// from its digits: the decimal exponent of its leading significant digit
/// is negative. Tells underflow from overflow when a double cannot hold it.
bool below_one(std::string_view token) {
  std::size_t i = token[0] == '-' ? 1 : 0;
  std::int64_t lead = -1;  // decimal exponent of the leading nonzero digit
  while (i < token.size() && token[i] == '0') ++i;
  if (i < token.size() && token[i] >= '1' && token[i] <= '9') {
    for (; i < token.size() && token[i] >= '0' && token[i] <= '9'; ++i) ++lead;
  } else if (i < token.size() && token[i] == '.') {
    for (++i; i < token.size() && token[i] == '0'; ++i) --lead;
  }
  std::int64_t exponent = 0;
  if (const std::size_t e = token.find_first_of("eE"); e != std::string_view::npos) {
    std::size_t j = e + 1;
    const bool negative = token[j] == '-';
    if (token[j] == '-' || token[j] == '+') ++j;
    for (; j < token.size(); ++j) {
      exponent = std::min<std::int64_t>(exponent * 10 + (token[j] - '0'), 1'000'000'000);
    }
    if (negative) exponent = -exponent;
  }
  return lead + exponent < 0;
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

const char* type_name(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "value";
}

}  // namespace

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"NaN\"";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_u64(std::string& out, std::uint64_t v) { append_integer(out, v); }

void append_i64(std::string& out, std::int64_t v) { append_integer(out, v); }

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  out += '"';
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type() == Type::kString ? v->string_
                                                    : std::string(fallback);
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type() == Type::kNumber ? v->number_ : fallback;
}

std::uint64_t JsonValue::get_u64(std::string_view key, std::uint64_t fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr ? v->as_u64(fallback) : fallback;
}

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  std::uint64_t v = 0;
  const char* begin = string_.data();
  const char* end = begin + string_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc() && ptr == end) return v;
  // Not a plain non-negative integer token (sign, fraction, exponent):
  // the double value is the best available reading when it fits.
  constexpr double kTwoPow64 = 18446744073709551616.0;
  return number_ >= 0.0 && number_ < kTwoPow64 ? static_cast<std::uint64_t>(number_)
                                                : fallback;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  // JSON whitespace is exactly space, tab, LF and CR (std::isspace would
  // also take \v and \f).
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  /// RAII depth guard: containers nest at most kMaxJsonDepth levels.
  class DepthScope {
   public:
    explicit DepthScope(JsonParser& parser) : parser_(parser) { ++parser_.depth_; }
    ~DepthScope() { --parser_.depth_; }
    [[nodiscard]] bool ok() const { return parser_.depth_ <= kMaxJsonDepth; }

   private:
    JsonParser& parser_;
  };

  bool parse_object(JsonValue& out) {
    const DepthScope depth(*this);
    if (!depth.ok()) return fail("nesting deeper than kMaxJsonDepth");
    if (!consume('{')) return false;
    out.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue key;
      skip_ws();
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object_[key.string_] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    const DepthScope depth(*this);
    if (!depth.ok()) return fail("nesting deeper than kMaxJsonDepth");
    if (!consume('[')) return false;
    out.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array_.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(JsonValue& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.type_ = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.string_ += '"'; break;
          case '\\': out.string_ += '\\'; break;
          case '/': out.string_ += '/'; break;
          case 'n': out.string_ += '\n'; break;
          case 't': out.string_ += '\t'; break;
          case 'r': out.string_ += '\r'; break;
          case 'b': out.string_ += '\b'; break;
          case 'f': out.string_ += '\f'; break;
          case 'u': {
            if (!parse_unicode_escape(out.string_)) return false;
            break;
          }
          default: return fail("unsupported escape");
        }
      } else {
        out.string_ += c;
      }
    }
    return fail("unterminated string");
  }

  /// Reads the four hex digits after "\u"; nullopt on malformed hex.
  std::optional<std::uint32_t> read_hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    pos_ += 4;
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  /// Decodes one \uXXXX escape (pos_ is just past the 'u'). A high surrogate
  /// followed by a \uXXXX low surrogate combines into one code point; a lone
  /// surrogate — unpaired high, or a low with no preceding high — decodes to
  /// U+FFFD so damaged artifacts stay loadable.
  bool parse_unicode_escape(std::string& out) {
    static constexpr std::uint32_t kReplacement = 0xfffd;
    const auto first = read_hex4();
    if (!first) return fail("bad \\u escape");
    std::uint32_t cp = *first;
    if (cp >= 0xdc00 && cp <= 0xdfff) {
      cp = kReplacement;  // lone low surrogate
    } else if (cp >= 0xd800 && cp <= 0xdbff) {
      // High surrogate: consume the paired \uXXXX if present and valid.
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        const std::size_t rewind = pos_;
        pos_ += 2;
        const auto second = read_hex4();
        if (!second) return fail("bad \\u escape");
        if (*second >= 0xdc00 && *second <= 0xdfff) {
          cp = 0x10000 + ((cp - 0xd800) << 10) + (*second - 0xdc00);
        } else {
          // Not a low surrogate: the first escape was lone; re-parse the
          // second one on the next loop iteration.
          cp = kReplacement;
          pos_ = rewind;
        }
      } else {
        cp = kReplacement;  // lone high surrogate at end / before other text
      }
    }
    append_utf8(out, cp);
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (text_.substr(pos_, 4) == "true") {
      out.type_ = JsonValue::Type::kBool;
      out.number_ = 1.0;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.type_ = JsonValue::Type::kBool;
      out.number_ = 0.0;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    if (text_.substr(pos_, 4) == "null") {
      out.type_ = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  /// Consumes [0-9]+; false when no digit is at pos_.
  bool skip_digits() {
    if (!at_digit()) return false;
    while (at_digit()) ++pos_;
    return true;
  }

  /// JSON number grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// checked before conversion: from_chars alone accepts `inf`, `.5`, `01`.
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    const auto bad = [this, start] {
      pos_ = start;
      return fail("bad number");
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!skip_digits()) {
      return bad();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!skip_digits()) return bad();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!skip_digits()) return bad();
    }
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec == std::errc::result_out_of_range && ptr == end) {
      // RFC 8259 §6 lets a parser limit the range of numbers. One too small
      // for a double reads as a signed zero, as strtod does; one too large
      // is refused.
      if (!below_one({begin, end})) {
        pos_ = start;
        return fail("number out of range");
      }
      v = *begin == '-' ? -0.0 : 0.0;
    } else if (ec != std::errc() || ptr != end) {
      return bad();
    }
    out.type_ = JsonValue::Type::kNumber;
    out.number_ = v;
    // Keep the raw token so 64-bit integers (trace ids) survive exactly:
    // a double holds only 53 mantissa bits.
    out.string_.assign(begin, end);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

std::optional<std::string> read_file(const std::string& path, std::string* error) {
  // A directory opens as an empty stream; report it as unreadable instead.
  std::error_code ec;
  std::ifstream file(path, std::ios::binary);
  if (!file || std::filesystem::is_directory(path, ec)) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

bool for_each_jsonl_object(std::string_view text, const JsonlVisitor& visit,
                           std::string* error) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    ++line_no;
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    std::string reason;
    const std::optional<JsonValue> object = parse_json(line, &reason);
    if (object && !object->is_object()) reason = "not a JSON object";
    if (!object || !object->is_object() || !visit(*object, &reason)) {
      if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + reason;
      return false;
    }
  }
  return true;
}

bool require_fields(const JsonValue& object, std::initializer_list<JsonField> fields,
                    std::string* error) {
  for (const JsonField& field : fields) {
    const JsonValue* member = object.get(field.key);
    if (member != nullptr && member->type() == field.type) continue;
    if (error != nullptr) {
      *error = member == nullptr ? "missing field \"" : "field \"";
      error->append(field.key);
      *error += '"';
      if (member != nullptr) *error += std::string(" is not a ") + type_name(field.type);
    }
    return false;
  }
  return true;
}

}  // namespace swiftest::obs
