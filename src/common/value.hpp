// Tagged scalar value type for OPS5 working-memory fields.
//
// OPS5 values are symbols, integers, or floats. Symbols are interned
// (common/symbol_table.hpp) and compare by id; numbers compare numerically
// across int/float. `total_order` provides the deterministic cross-kind
// ordering used for conflict-resolution tie-breaking.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>

namespace psme {

using SymbolId = std::uint32_t;

enum class ValueKind : std::uint8_t { Nil = 0, Symbol, Int, Float };

class Value {
 public:
  constexpr Value() : kind_(ValueKind::Nil), i_(0) {}

  static constexpr Value nil() { return Value(); }
  static constexpr Value symbol(SymbolId s) {
    Value v;
    v.kind_ = ValueKind::Symbol;
    v.i_ = s;
    return v;
  }
  static constexpr Value integer(std::int64_t i) {
    Value v;
    v.kind_ = ValueKind::Int;
    v.i_ = i;
    return v;
  }
  static constexpr Value real(double d) {
    Value v;
    v.kind_ = ValueKind::Float;
    v.f_ = d;
    return v;
  }

  constexpr ValueKind kind() const { return kind_; }
  constexpr bool is_nil() const { return kind_ == ValueKind::Nil; }
  constexpr bool is_symbol() const { return kind_ == ValueKind::Symbol; }
  constexpr bool is_number() const {
    return kind_ == ValueKind::Int || kind_ == ValueKind::Float;
  }

  constexpr SymbolId as_symbol() const { return static_cast<SymbolId>(i_); }
  constexpr std::int64_t as_int() const { return i_; }
  constexpr double as_float() const { return f_; }
  constexpr double number() const {
    return kind_ == ValueKind::Float ? f_ : static_cast<double>(i_);
  }

  // OPS5 `=` semantics: symbols equal by identity, numbers numerically,
  // mixed symbol/number never equal.
  friend constexpr bool operator==(const Value& a, const Value& b) {
    if (a.kind_ == b.kind_) {
      if (a.kind_ == ValueKind::Float) return a.f_ == b.f_;
      return a.i_ == b.i_;
    }
    if (a.is_number() && b.is_number()) return a.number() == b.number();
    return false;
  }
  friend constexpr bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }

  // Numeric ordering; only meaningful when both sides are numbers.
  constexpr bool num_lt(const Value& o) const { return number() < o.number(); }
  constexpr bool num_le(const Value& o) const { return number() <= o.number(); }

  // OPS5 `<=>`: both values of the same type (both symbolic or both numeric).
  constexpr bool same_type(const Value& o) const {
    if (is_number() && o.is_number()) return true;
    return kind_ == o.kind_;
  }

  // Deterministic total order across all kinds: by kind rank, then contents.
  // Used only for tie-breaking, never for OPS5 predicate semantics.
  static constexpr int total_order(const Value& a, const Value& b) {
    auto rank = [](const Value& v) -> int {
      switch (v.kind_) {
        case ValueKind::Nil: return 0;
        case ValueKind::Symbol: return 1;
        default: return 2;  // numbers ordered together
      }
    };
    const int ra = rank(a), rb = rank(b);
    if (ra != rb) return ra < rb ? -1 : 1;
    if (ra == 2) {
      const double x = a.number(), y = b.number();
      if (x != y) return x < y ? -1 : 1;
      return 0;
    }
    if (a.i_ != b.i_) return a.i_ < b.i_ ? -1 : 1;
    return 0;
  }

  std::size_t hash() const {
    // Numbers with equal numeric value must hash equal (2 == 2.0).
    std::uint64_t h;
    constexpr std::int64_t kExact = std::int64_t{1} << 53;
    if (kind_ == ValueKind::Int && i_ > -kExact && i_ < kExact) {
      // Exactly representable as a double: the number path below would
      // round-trip it through double to this same value.
      h = 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(i_);
    } else if (is_number()) {
      // Int 2 and Float 2.0 compare equal, so they must hash equal.
      const double d = number();
      const auto as_int = static_cast<std::int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        h = 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(as_int);
      } else {
        h = std::hash<double>{}(d);
      }
    } else {
      h = 0x2545f4914f6cdd1dull * (static_cast<std::uint64_t>(kind_) + 1) +
          static_cast<std::uint64_t>(i_);
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }

 private:
  ValueKind kind_;
  union {
    std::int64_t i_;
    double f_;
  };
};

}  // namespace psme
