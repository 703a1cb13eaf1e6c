#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lcl::obs::json {

/// Minimal owned JSON value - just enough to validate and read back the
/// trace records and metric snapshots this library emits. Numbers are kept
/// both as double and (when exactly representable) as int64, because trace
/// timestamps are integral microseconds.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(std::nullptr_t) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d);
  explicit Value(std::int64_t i)
      : type_(Type::kNumber), number_(static_cast<double>(i)), int_(i),
        has_int_(true) {}
  explicit Value(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_object() const noexcept { return type_ == Type::kObject; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  std::int64_t as_int() const {
    return has_int_ ? int_ : static_cast<std::int64_t>(number_);
  }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& as_array() const { return array_; }
  const std::map<std::string, Value>& as_object() const { return object_; }

  /// Object member or nullptr (also nullptr when not an object).
  const Value* find(std::string_view key) const;

  std::vector<Value>& array() { return array_; }
  std::map<std::string, Value>& object() { return object_; }

  static Value make_array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value make_object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  bool has_int_ = false;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Deepest array/object nesting `parse` accepts. The parser recurses once per
/// level, so an unbounded depth would let a small hostile document (an HTTP
/// body, a spec file, a cache line) overflow the stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document. On failure returns nullptr and, when `error`
/// is non-null, describes what went wrong (with a byte offset). Documents
/// nested deeper than `kMaxDepth` are rejected as parse errors.
std::unique_ptr<Value> parse(std::string_view text, std::string* error);

/// Serializes `s` as a quoted JSON string (escapes quotes, backslashes,
/// control characters).
std::string quote(std::string_view s);

/// Serializes a value back to compact JSON text.
std::string dump(const Value& value);

}  // namespace lcl::obs::json
