// Minimal Open Dependability Exchange (ODE)-style model export.
//
// The paper's EDDIs are generated from design-time DDI models exchanged in
// the ODE metamodel (Zeller et al., RAMS 2023). This module provides the
// interchange substrate: a small JSON document model with a serializer,
// used to export each EDDI's model inventory (fault trees, Markov models,
// attack trees, monitors) in a machine-readable form.
#pragma once

#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace sesame::eddi::ode {

/// A JSON-like value: null, bool, number, string, array, object.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::size_t u) : data_(static_cast<double>(u)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Typed reads. The wrong type throws std::invalid_argument naming the
  /// expected and the actual type.
  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const { return get<double>("number"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }

  /// A count, id or seed: a finite integral number that fits T, else
  /// std::invalid_argument. (double(max) + 1 is exactly 2^digits.)
  template <std::integral T>
  T as_integer() const {
    using L = std::numeric_limits<T>;
    return static_cast<T>(integral_in(static_cast<double>(L::min()),
                                      static_cast<double>(L::max()) + 1.0));
  }

  /// Object field access; inserts when mutable.
  Value& operator[](const std::string& key);
  const Value& at(const std::string& key) const;

  void push_back(Value v);

  /// Serializes to compact JSON (stable key order via std::map).
  std::string to_json() const;

 private:
  template <class T>
  const T& get(const char* expected) const {
    if (const T* p = std::get_if<T>(&data_)) return *p;
    type_error(expected);
  }
  [[noreturn]] void type_error(const char* expected) const;
  /// The number, if integral and in [lo, hi); else std::invalid_argument.
  double integral_in(double lo, double hi) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Deepest array/object nesting parse_json accepts. The tree's own
/// documents nest fewer than 10 levels; the bound keeps hostile input
/// from exhausting the stack of the recursive parser.
inline constexpr std::size_t kMaxParseDepth = 64;

/// Parses JSON produced by Value::to_json (round-trip support). Throws
/// std::runtime_error, with the byte offset, on malformed input or nesting
/// deeper than kMaxParseDepth. Supports the full JSON grammar except
/// unicode escapes beyond \uXXXX for the BMP.
Value parse_json(const std::string& text);

}  // namespace sesame::eddi::ode
