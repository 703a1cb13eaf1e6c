#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace lcl::obs::json {

Value::Value(double d) : type_(Type::kNumber), number_(d) {
  const auto i = static_cast<std::int64_t>(d);
  if (std::floor(d) == d && static_cast<double>(i) == d) {
    int_ = i;
    has_int_ = true;
  }
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::unique_ptr<Value> run() {
    skip_whitespace();
    auto value = std::make_unique<Value>();
    if (!parse_value(*value)) return nullptr;
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON document");
      return nullptr;
    }
    return value;
  }

 private:
  void fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (consume(c)) return true;
    fail(std::string("expected '") + c + "'");
    return false;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        return parse_string_value(out);
      case 't':
        return parse_literal("true", Value(true), out);
      case 'f':
        return parse_literal("false", Value(false), out);
      case 'n':
        return parse_literal("null", Value(nullptr), out);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, Value value, Value& out) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
      return false;
    }
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double d = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    out = Value(d);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("invalid \\u escape");
                return false;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by this library's own writers).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("invalid escape character");
            return false;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_string_value(Value& out) {
    std::string s;
    if (!parse_string(s)) return false;
    out = Value(std::move(s));
    return true;
  }

  bool parse_array(Value& out) {
    if (!expect('[')) return false;
    out = Value::make_array();
    skip_whitespace();
    if (consume(']')) return true;
    while (true) {
      Value element;
      skip_whitespace();
      if (!parse_value(element)) return false;
      out.array().push_back(std::move(element));
      skip_whitespace();
      if (consume(']')) return true;
      if (!expect(',')) return false;
    }
  }

  bool parse_object(Value& out) {
    if (!expect('{')) return false;
    out = Value::make_object();
    skip_whitespace();
    if (consume('}')) return true;
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!expect(':')) return false;
      skip_whitespace();
      Value element;
      if (!parse_value(element)) return false;
      out.object().emplace(std::move(key), std::move(element));
      skip_whitespace();
      if (consume('}')) return true;
      if (!expect(',')) return false;
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

std::unique_ptr<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string dump(const Value& value) {
  switch (value.type()) {
    case Value::Type::kNull:
      return "null";
    case Value::Type::kBool:
      return value.as_bool() ? "true" : "false";
    case Value::Type::kNumber: {
      if (static_cast<double>(value.as_int()) == value.as_double()) {
        return std::to_string(value.as_int());
      }
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.as_double());
      return buffer;
    }
    case Value::Type::kString:
      return quote(value.as_string());
    case Value::Type::kArray: {
      std::string out = "[";
      bool first = true;
      for (const auto& element : value.as_array()) {
        if (!first) out += ',';
        first = false;
        out += dump(element);
      }
      return out + "]";
    }
    case Value::Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, element] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        out += quote(key);
        out += ':';
        out += dump(element);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace lcl::obs::json
