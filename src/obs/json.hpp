// The obs JSON module: the deterministic writers every exporter renders
// with, the one reader every artifact loader parses with, and the file,
// JSONL and required-field helpers those loaders share.
//
// Writers: doubles are rendered with std::to_chars (shortest round-trip
// form), so the same value always produces the same bytes regardless of
// stream state. JSON has no literal for NaN or the infinities; those render
// as the quoted strings "NaN", "Infinity", and "-Infinity" so the emitted
// document stays parseable by any conforming reader.
//
// Reader: a deliberately small recursive-descent parser (objects, arrays,
// strings, numbers, booleans, null) so spec and artifact files can be plain
// JSON without pulling a dependency into the tree. Semantics the loaders
// rely on (covered by tests/obs/json_test.cpp):
//   * numbers follow the JSON grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?
//     ([eE][+-]?[0-9]+)?; `inf`, `.5`, `01` and `1.` are rejected; a number
//     too small for a double reads as a signed zero (`1e-400`), one too large
//     (`1e400`) is rejected as out of range;
//   * duplicate object keys: last value wins;
//   * \uXXXX escapes decode to UTF-8, surrogate pairs included; a lone
//     surrogate decodes to U+FFFD (replacement) instead of failing, so a
//     damaged artifact degrades rather than becoming unreadable;
//   * nesting beyond kMaxJsonDepth is rejected (a hostile or corrupt
//     document cannot overflow the parse stack);
//   * integer tokens keep their raw text, so as_u64() is exact over the
//     full u64 range (2^63 and friends round-trip bit-for-bit).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swiftest::obs {

// --- writers ----------------------------------------------------------------

/// Appends a finite double in shortest round-trip decimal form; non-finite
/// values render as the quoted strings "NaN" / "Infinity" / "-Infinity".
void append_double(std::string& out, double v);

void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes, and
/// control characters.
void append_json_string(std::string& out, std::string_view s);

// --- reader -----------------------------------------------------------------

/// Maximum object/array nesting the parser accepts. Deep enough for any
/// artifact this tree writes (they nest < 10 levels), small enough that a
/// pathological document cannot exhaust the recursion stack.
inline constexpr int kMaxJsonDepth = 192;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  [[nodiscard]] double as_number(double fallback = 0.0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  /// Exact unsigned 64-bit read: doubles carry 53 mantissa bits, so ids above
  /// 2^53 (trace nonces) must be re-parsed from the raw number token. A
  /// token that is not a plain integer reads as its double value, truncated,
  /// or as `fallback` when that value is negative or not below 2^64.
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return type_ == Type::kBool ? number_ != 0.0 : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& as_array() const { return array_; }

  /// Object member by key, or nullptr.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// All object members, key-ordered (empty for non-objects).
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const noexcept {
    return object_;
  }
  /// Convenience accessors with fallbacks for absent/mistyped members.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] double get_number(std::string_view key, double fallback) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  double number_ = 0.0;  // doubles as bool storage
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document. Returns nullopt (with a position/reason in
/// `error`, when provided) on malformed input or trailing garbage.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

// --- loader helpers ---------------------------------------------------------

/// The whole content of the file at `path`, or nullopt with
/// "cannot read <path>" in `error`.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path,
                                                   std::string* error = nullptr);

/// read_file(path) handed to `parse(text, error)`: every artifact's
/// load_*_file is this over its parse_* function.
template <typename Parse>
auto parse_file(const std::string& path, std::string* error, Parse parse)
    -> decltype(parse(std::string_view{}, error)) {
  const std::optional<std::string> text = read_file(path, error);
  if (!text) return std::nullopt;
  return parse(*text, error);
}

/// Reads an object-per-line (JSONL) document: splits `text` on '\n', skips
/// empty lines and hands each parsed line to `visit`. Stops at the first line
/// that does not parse, is not a JSON object, or that `visit` rejects (by
/// returning false with a reason in its error argument); `error` then reads
/// "line N: <reason>". Returns true when every line was accepted.
using JsonlVisitor = std::function<bool(const JsonValue& object, std::string* error)>;
bool for_each_jsonl_object(std::string_view text, const JsonlVisitor& visit,
                           std::string* error);

struct JsonField {
  std::string_view key;
  JsonValue::Type type;
};

/// True when `object` has every field in `fields`, each of its type.
/// Otherwise false with `missing field "<key>"` or
/// `field "<key>" is not a <type>` (first failing field) in `error`.
bool require_fields(const JsonValue& object, std::initializer_list<JsonField> fields,
                    std::string* error);

}  // namespace swiftest::obs
