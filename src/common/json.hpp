// Minimal JSON value type, parser, and writer.
//
// The paper's tooling exchanges specialization points, system features, and
// OCI manifests as JSON (Fig. 4, Appendix B). We implement a small,
// dependency-free JSON library with insertion-ordered objects so emitted
// documents are stable and diffable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xaas::common {

class Json;

/// Ordered key/value storage: preserves insertion order like the JSON
/// documents in the paper's appendix, while still offering O(log n) lookup.
class JsonObject {
public:
  Json& operator[](const std::string& key);
  Json* find(std::string_view key);
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

private:
  std::vector<std::pair<std::string, std::unique_ptr<Json>>> entries_;
};

/// JSON parse/access error.
class JsonError : public std::runtime_error {
public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// A JSON value: null, bool, integer, double, string, array, or object.
class Json {
public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}
  Json(std::size_t v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), string_(s) {}

  static Json array();
  static Json object();

  Json(const Json& other);
  Json(Json&&) noexcept = default;
  Json& operator=(const Json& other);
  Json& operator=(Json&&) noexcept = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array access.
  std::vector<Json>& items();
  const std::vector<Json>& items() const;
  void push_back(Json v);

  /// Object access. `operator[]` creates missing keys (object only).
  Json& operator[](const std::string& key);
  const Json* find(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  JsonObject& as_object();
  const JsonObject& as_object() const;

  /// Typed lookups with defaults — convenient for config-style documents.
  std::string get_string(std::string_view key, std::string def = "") const;
  bool get_bool(std::string_view key, bool def = false) const;
  std::int64_t get_int(std::string_view key, std::int64_t def = 0) const;
  double get_double(std::string_view key, double def = 0.0) const;

  /// Serialize. `indent > 0` pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parse a document; throws JsonError on malformed input.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;

private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::shared_ptr<JsonObject> obj_;  // shared only for cheap moves; deep-copied on copy
};

}  // namespace xaas::common
