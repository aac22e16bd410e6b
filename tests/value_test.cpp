#include "common/value.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/symbol_table.hpp"

namespace psme {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::nil().is_nil());
  EXPECT_TRUE(Value::integer(3).is_number());
  EXPECT_TRUE(Value::real(2.5).is_number());
  EXPECT_FALSE(Value::nil().is_number());
  EXPECT_EQ(Value::integer(-7).as_int(), -7);
  EXPECT_DOUBLE_EQ(Value::real(1.5).as_float(), 1.5);
  EXPECT_TRUE(sym("abc").is_symbol());
}

TEST(Value, NumericEqualityCrossesIntFloat) {
  EXPECT_EQ(Value::integer(2), Value::real(2.0));
  EXPECT_NE(Value::integer(2), Value::real(2.5));
  EXPECT_EQ(Value::real(0.0), Value::integer(0));
}

TEST(Value, SymbolsCompareByIdentity) {
  EXPECT_EQ(sym("red"), sym("red"));
  EXPECT_NE(sym("red"), sym("blue"));
  // Symbols never equal numbers, even when the spelling is numeric-ish.
  EXPECT_NE(sym("2"), Value::integer(2));
}

TEST(Value, NilEqualsOnlyNil) {
  EXPECT_EQ(Value::nil(), Value::nil());
  EXPECT_NE(Value::nil(), Value::integer(0));
  EXPECT_NE(Value::nil(), sym("nil-ish"));
}

TEST(Value, NumericOrdering) {
  EXPECT_TRUE(Value::integer(1).num_lt(Value::real(1.5)));
  EXPECT_TRUE(Value::integer(2).num_le(Value::integer(2)));
  EXPECT_FALSE(Value::real(3.0).num_lt(Value::integer(3)));
}

TEST(Value, SameType) {
  EXPECT_TRUE(Value::integer(1).same_type(Value::real(2.0)));
  EXPECT_TRUE(sym("a").same_type(sym("b")));
  EXPECT_FALSE(sym("a").same_type(Value::integer(1)));
  EXPECT_TRUE(Value::nil().same_type(Value::nil()));
}

TEST(Value, HashRespectsNumericEquality) {
  EXPECT_EQ(Value::integer(2).hash(), Value::real(2.0).hash());
  EXPECT_EQ(Value::integer(-5).hash(), Value::real(-5.0).hash());
  // Distinct values should (with overwhelming probability) hash apart.
  EXPECT_NE(Value::integer(2).hash(), Value::integer(3).hash());
  EXPECT_NE(sym("x").hash(), sym("y").hash());
}

TEST(Value, HashExactIntegersUnchanged) {
  // Pinned from the build whose ints hashed through the double round trip:
  // task_hash, and so every hash-table line, depends on these bits.
  const std::int64_t e53 = std::int64_t{1} << 53;
  EXPECT_EQ(Value::integer(0).hash(), 0x9341ca263702a9e6ull);
  EXPECT_EQ(Value::integer(-1).hash(), 0x2bc1b975eb42904full);
  EXPECT_EQ(Value::integer(e53 - 1).hash(), 0x1dd9403edf5eeceaull);
  EXPECT_EQ(Value::integer(-(e53 - 1)).hash(), 0xd447a1170e7f10a3ull);
  EXPECT_EQ(Value::integer(e53).hash(), 0xfc22f4cdcfc33693ull);
  EXPECT_EQ(Value::integer(std::numeric_limits<std::int64_t>::min()).hash(),
            0x0e972d59b9e9da59ull);
  EXPECT_EQ(Value::integer(2).hash(), Value::real(2.0).hash());
}

TEST(Value, TotalOrderIsAntisymmetricAndTotal) {
  const Value vals[] = {Value::nil(),      sym("a"),        sym("b"),
                        Value::integer(1), Value::real(1.5), Value::integer(2)};
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      const int ab = Value::total_order(a, b);
      const int ba = Value::total_order(b, a);
      EXPECT_EQ(ab, -ba);
      if (a == b && a.same_type(b)) {
        EXPECT_EQ(ab, 0);
      }
    }
  }
  EXPECT_LT(Value::total_order(Value::nil(), sym("a")), 0);
  EXPECT_LT(Value::total_order(sym("a"), Value::integer(0)), 0);
  EXPECT_EQ(Value::total_order(Value::integer(1), Value::real(1.0)), 0);
}

TEST(SymbolTable, InternIsIdempotent) {
  const SymbolId a = intern("some-unique-symbol");
  const SymbolId b = intern("some-unique-symbol");
  EXPECT_EQ(a, b);
  EXPECT_EQ(symbol_name(a), "some-unique-symbol");
  EXPECT_NE(intern("another-symbol"), a);
}

TEST(SymbolTable, ToString) {
  EXPECT_EQ(to_string(sym("hello")), "hello");
  EXPECT_EQ(to_string(Value::integer(42)), "42");
  EXPECT_EQ(to_string(Value::nil()), "nil");
  EXPECT_EQ(to_string(Value::real(2.5)), "2.5");
}

}  // namespace
}  // namespace psme
