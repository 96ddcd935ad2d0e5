#ifndef SSA_DB_VALUE_H_
#define SSA_DB_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "util/common.h"

namespace ssa {

/// A scalar cell value in the bidding-program tables: a number, a string
/// (keyword text, bid-formula text) or NULL (empty-set aggregates).
///
/// 16 bytes: a type tag and a union of the number and a handle to an
/// immutable, reference-counted string. Number and NULL values copy as
/// plain bytes, without touching the heap. Copying a string value shares
/// its text and bumps an atomic count; the text is freed with its last
/// value. Strings compare by content, never by handle.
class Value {
 public:
  enum class Type : uint8_t { kNull, kNumber, kString };

  Value() { payload_.number = 0.0; }
  Value(const Value& o) : type_(o.type_), payload_(o.payload_) {
    if (is_string()) payload_.string->Ref();
  }
  Value(Value&& o) noexcept : type_(o.type_), payload_(o.payload_) {
    o.type_ = Type::kNull;
  }
  Value& operator=(const Value& o) {
    if (o.is_string()) o.payload_.string->Ref();
    Release();
    type_ = o.type_;
    payload_ = o.payload_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      type_ = o.type_;
      payload_ = o.payload_;
      o.type_ = Type::kNull;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value Number(double v) {
    Value x;
    x.type_ = Type::kNumber;
    x.payload_.number = v;
    return x;
  }
  static Value String(std::string s) {
    Value x;
    x.type_ = Type::kString;
    x.payload_.string = new StringRep(std::move(s));
    return x;
  }
  static Value Bool(bool b) { return Number(b ? 1.0 : 0.0); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  double number() const {
    SSA_CHECK_MSG(is_number(), "Value is not a number");
    return payload_.number;
  }
  /// The text; valid while any Value holding it lives.
  const std::string& str() const {
    SSA_CHECK_MSG(is_string(), "Value is not a string");
    return payload_.string->text;
  }

  /// SQL-ish truthiness: non-zero number; NULL and strings are not truthy.
  bool Truthy() const { return is_number() && payload_.number != 0.0; }

  /// Equality per SQL semantics-lite: NULL equals nothing (including NULL).
  bool EqualsValue(const Value& o) const {
    if (is_null() || o.is_null()) return false;
    if (type_ != o.type_) return false;
    return is_number() ? payload_.number == o.payload_.number
                       : str() == o.str();
  }

  std::string ToString() const;

 private:
  /// Immutable text shared by every copy of one string value.
  struct StringRep {
    explicit StringRep(std::string s) : text(std::move(s)) {}
    void Ref() { refs.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<uint32_t> refs{1};
    const std::string text;
  };
  union Payload {
    double number;
    StringRep* string;
  };

  /// Drops this value's reference to its string, if it holds one.
  void Release() {
    if (is_string() &&
        payload_.string->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete payload_.string;
    }
  }

  Type type_ = Type::kNull;
  Payload payload_;
};

static_assert(sizeof(Value) == 16, "a table cell is a tag plus 8 bytes");

}  // namespace ssa

#endif  // SSA_DB_VALUE_H_
