#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace xaas::common {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return *v;
  }
  entries_.emplace_back(key, std::make_unique<Json>());
  return *entries_.back().second;
}

Json* JsonObject::find(std::string_view key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v.get();
  }
  return nullptr;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  j.obj_ = std::make_shared<JsonObject>();
  return j;
}

Json::Json(const Json& other)
    : type_(other.type_),
      bool_(other.bool_),
      int_(other.int_),
      double_(other.double_),
      string_(other.string_),
      array_(other.array_) {
  if (other.obj_) {
    obj_ = std::make_shared<JsonObject>();
    for (const auto& [k, v] : *other.obj_) {
      (*obj_)[k] = *v;
    }
  }
}

Json& Json::operator=(const Json& other) {
  if (this != &other) {
    Json copy(other);
    *this = std::move(copy);
  }
  return *this;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) return static_cast<std::int64_t>(double_);
  throw JsonError("not a number");
}

double Json::as_double() const {
  if (type_ == Type::Double) return double_;
  if (type_ == Type::Int) return static_cast<double>(int_);
  throw JsonError("not a number");
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw JsonError("not a string");
  return string_;
}

std::vector<Json>& Json::items() {
  if (type_ != Type::Array) throw JsonError("not an array");
  return array_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) throw JsonError("not an array");
  return array_;
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw JsonError("not an array");
  array_.push_back(std::move(v));
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) {
    type_ = Type::Object;
    obj_ = std::make_shared<JsonObject>();
  }
  if (type_ != Type::Object) throw JsonError("not an object");
  return (*obj_)[key];
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object || !obj_) return nullptr;
  return obj_->find(key);
}

JsonObject& Json::as_object() {
  if (type_ != Type::Object) throw JsonError("not an object");
  return *obj_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::Object) throw JsonError("not an object");
  return *obj_;
}

std::string Json::get_string(std::string_view key, std::string def) const {
  const Json* v = find(key);
  return (v && v->is_string()) ? v->as_string() : def;
}

bool Json::get_bool(std::string_view key, bool def) const {
  const Json* v = find(key);
  return (v && v->is_bool()) ? v->as_bool() : def;
}

std::int64_t Json::get_int(std::string_view key, std::int64_t def) const {
  const Json* v = find(key);
  return (v && v->is_number()) ? v->as_int() : def;
}

double Json::get_double(std::string_view key, double def) const {
  const Json* v = find(key);
  return (v && v->is_number()) ? v->as_double() : def;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    // Allow int/double cross-comparison.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: {
      if (obj_->size() != other.obj_->size()) return false;
      for (const auto& [k, v] : *obj_) {
        const Json* ov = other.obj_->find(k);
        if (!ov || !(*v == *ov)) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::Double: {
      if (std::isfinite(double_)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        // Ensure the value re-parses as a double, not an int.
        if (!std::strpbrk(buf, ".eE")) {
          std::strcat(buf, ".0");
        }
        out += buf;
      } else {
        out += "null";
      }
      break;
    }
    case Type::String: append_escaped(out, string_); break;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) append_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : *obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v->dump_to(out, indent, depth + 1);
      }
      if (!obj_->empty()) append_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& msg) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
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
          default: fail("invalid escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    try {
      if (is_double) return Json(std::stod(token));
      return Json(static_cast<std::int64_t>(std::stoll(token)));
    } catch (const std::exception&) {
      fail("number out of range: " + token);
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == ']') {
        ++pos_;
        break;
      } else {
        fail("expected ',' or ']'");
      }
    }
    return arr;
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == '}') {
        ++pos_;
        break;
      } else {
        fail("expected ',' or '}'");
      }
    }
    return obj;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace xaas::common
