// Network construction: structure, sharing (the paper's Figure 2-2), test
// compilation, and the OPS5 semantics of the alpha tests the match kernel
// walks (eval_alpha_test).
#include "rete/builder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/symbol_table.hpp"
#include "rete/printer.hpp"

namespace psme::rete {
namespace {

// The two productions of the paper's Figure 2-2.
constexpr const char* kFigure22 = R"(
(literalize C1 attr1 attr2)
(literalize C2 attr1 attr2)
(literalize C3 attr1)
(literalize C4 attr1)
(p p1
  (C1 ^attr1 <x> ^attr2 12)
  (C2 ^attr1 15 ^attr2 <x>)
  - (C3 ^attr1 <x>)
  -->
  (remove 2))
(p p2
  (C2 ^attr1 15 ^attr2 <y>)
  (C4 ^attr1 <y>)
  -->
  (modify 1 ^attr1 12))
)";

TEST(ReteBuilder, Figure22Structure) {
  const auto program = ops5::Program::from_source(kFigure22);
  const auto net = build_network(program);
  const NetworkCounts c = net->counts();

  // Alpha programs: C1(attr2=12), C2(attr1=15), C3(), C4() — the C2 test is
  // shared between p1 and p2.
  EXPECT_EQ(c.alpha_programs, 4u);
  // p1 contributes two two-input nodes (one negative), p2 one.
  EXPECT_EQ(c.join_nodes, 3u);
  EXPECT_EQ(c.negative_nodes, 1u);
  EXPECT_EQ(c.terminal_nodes, 2u);

  // The shared C2 alpha feeds p1's join (right input) and p2's chain (as
  // p2's first CE -> left input of p2's join).
  const auto* c2_alphas = net->alphas_for_class(intern("C2"));
  ASSERT_NE(c2_alphas, nullptr);
  ASSERT_EQ(c2_alphas->size(), 1u);
  const AlphaProgram* c2 = (*c2_alphas)[0];
  bool feeds_left = false, feeds_right = false;
  for (const AlphaDest& d : c2->dests) {
    feeds_left |= d.side == Side::Left;
    feeds_right |= d.side == Side::Right;
  }
  EXPECT_TRUE(feeds_left);
  EXPECT_TRUE(feeds_right);
}

TEST(ReteBuilder, IdenticalPrefixesShareJoinNodes) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(literalize c z)
(p p1 (a ^x <v>) (b ^y <v>) (c ^z 1) --> (halt))
(p p2 (a ^x <v>) (b ^y <v>) (c ^z 2) --> (halt))
)");
  const auto net = build_network(program);
  // The (a, b) join is shared; the final joins differ by their alpha.
  EXPECT_EQ(net->counts().join_nodes, 3u);
  EXPECT_EQ(net->counts().shared_join_nodes, 1u);
  // Alphas: a(), b(), c(z=1), c(z=2).
  EXPECT_EQ(net->counts().alpha_programs, 4u);
}

TEST(ReteBuilder, DifferentTestsDoNotShare) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x y)
(literalize b z)
(p p1 (a ^x <v>) (b ^z <v>) --> (halt))
(p p2 (a ^y <v>) (b ^z <v>) --> (halt))
)");
  const auto net = build_network(program);
  // Same alpha programs (both a-CEs are test-free) but different eq tests
  // (slot 0 vs slot 1), so the joins are distinct.
  EXPECT_EQ(net->counts().join_nodes, 2u);
  EXPECT_EQ(net->counts().shared_join_nodes, 0u);
}

TEST(ReteBuilder, ConstantTestChainSharing) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x y z)
(p p1 (a ^x 1 ^y 2) --> (halt))
(p p2 (a ^x 1 ^y 3) --> (halt))
)");
  const auto net = build_network(program);
  const ConstantTestNode* root = net->class_root(intern("a"));
  ASSERT_NE(root, nullptr);
  // Root has one child (x=1), which has two children (y=2, y=3).
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0]->children.size(), 2u);
}

TEST(ReteBuilder, EqTestsFeedHashingAndPredsStayResidual) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y z)
(p p1 (a ^x <v>) (b ^y <v> ^z > <v>) --> (halt))
)");
  const auto net = build_network(program);
  ASSERT_EQ(net->joins().size(), 1u);
  const JoinNode& j = *net->joins()[0];
  ASSERT_EQ(j.eq_tests.size(), 1u);
  EXPECT_EQ(j.eq_tests[0].tok_pos, 0);
  EXPECT_EQ(j.eq_tests[0].tok_slot, 0);
  EXPECT_EQ(j.eq_tests[0].wme_slot, 0);  // b.y
  ASSERT_EQ(j.preds.size(), 1u);
  EXPECT_EQ(j.preds[0].op, ops5::PredOp::Gt);
  EXPECT_EQ(j.preds[0].wme_slot, 1);  // b.z
}

TEST(ReteBuilder, CrossProductJoinHasNoEqTests) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(p culprit (a ^x <v>) (b ^y <w>) --> (halt))
)");
  const auto net = build_network(program);
  ASSERT_EQ(net->joins().size(), 1u);
  EXPECT_TRUE(net->joins()[0]->eq_tests.empty());
  EXPECT_TRUE(net->joins()[0]->preds.empty());
}

TEST(ReteBuilder, SingleCeProductionGoesStraightToTerminal) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(p p1 (a ^x 1) --> (halt))
)");
  const auto net = build_network(program);
  EXPECT_EQ(net->counts().join_nodes, 0u);
  ASSERT_EQ(net->alphas().size(), 1u);
  EXPECT_EQ(net->alphas()[0]->terminal_dests.size(), 1u);
}

TEST(ReteBuilder, IntraCeVariableTestIsAlphaLevel) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x y)
(p p1 (a ^x <v> ^y <v>) --> (halt))
)");
  const auto net = build_network(program);
  ASSERT_EQ(net->alphas().size(), 1u);
  const AlphaProgram& a = *net->alphas()[0];
  ASSERT_EQ(a.tests.size(), 1u);
  EXPECT_EQ(a.tests[0].kind, AlphaTestKind::SlotPred);
  EXPECT_EQ(a.tests[0].slot, 1u);
  EXPECT_EQ(a.tests[0].other_slot, 0u);
}

TEST(RetePrinter, RendersWithoutCrashing) {
  const auto program = ops5::Program::from_source(kFigure22);
  const auto net = build_network(program);
  const std::string out = print_network(*net, program);
  EXPECT_NE(out.find("class C2"), std::string::npos);
  EXPECT_NE(out.find("(negative)"), std::string::npos);
  EXPECT_NE(out.find("p:p1"), std::string::npos);
  EXPECT_NE(out.find("counts:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Alpha-test semantics: the edge cases a test list must get right when the
// kernel walks it in place (no build-time folding).

AlphaTest const_test(std::uint16_t slot, ops5::PredOp op, Value v) {
  AlphaTest t;
  t.kind = AlphaTestKind::ConstPred;
  t.slot = slot;
  t.op = op;
  t.constant = v;
  return t;
}

AlphaTest slot_test(std::uint16_t slot, ops5::PredOp op,
                    std::uint16_t other) {
  AlphaTest t;
  t.kind = AlphaTestKind::SlotPred;
  t.slot = slot;
  t.op = op;
  t.other_slot = other;
  return t;
}

AlphaTest disj_test(std::uint16_t slot, std::vector<Value> vs) {
  AlphaTest t;
  t.kind = AlphaTestKind::Disjunction;
  t.slot = slot;
  t.disjuncts = std::move(vs);
  return t;
}

// Does `v`, placed in every slot of a 4-field wme, pass every test?
bool all_pass(const std::vector<AlphaTest>& tests, const Value& v) {
  const Value fields[4] = {v, v, v, v};
  for (const AlphaTest& t : tests)
    if (!eval_alpha_test(t, fields)) return false;
  return true;
}

// One value of each OPS5 kind, numbers of both representations.
std::vector<Value> probe_values() {
  return {Value::nil(),       sym("red"),        sym("blue"),
          Value::integer(2),  Value::integer(-7), Value::real(2.0),
          Value::real(0.5)};
}

TEST(Folding, EmptyDisjunctionIsAlwaysFalse) {
  for (const Value& v : probe_values())
    EXPECT_FALSE(all_pass({disj_test(0, {})}, v));
}

TEST(Folding, SingleArmDisjunctionBecomesConstEq) {
  const AlphaTest disj = disj_test(2, {sym("red"), sym("red")});
  const AlphaTest eq = const_test(2, ops5::PredOp::Eq, sym("red"));
  for (const Value& v : probe_values())
    EXPECT_EQ(all_pass({disj}, v), all_pass({eq}, v));
  EXPECT_TRUE(all_pass({disj}, sym("red")));
}

TEST(Folding, SameSlotPredicates) {
  for (const Value& v : probe_values()) {
    // x = x and x <=> x always hold.
    EXPECT_TRUE(all_pass({slot_test(1, ops5::PredOp::Eq, 1)}, v));
    EXPECT_TRUE(all_pass({slot_test(1, ops5::PredOp::SameType, 1)}, v));
    // x <> x, x < x, x > x never hold.
    EXPECT_FALSE(all_pass({slot_test(1, ops5::PredOp::Ne, 1)}, v));
    EXPECT_FALSE(all_pass({slot_test(1, ops5::PredOp::Lt, 1)}, v));
    EXPECT_FALSE(all_pass({slot_test(1, ops5::PredOp::Gt, 1)}, v));
  }
  // x <= x means "x is a number" in OPS5.
  const AlphaTest le = slot_test(1, ops5::PredOp::Le, 1);
  Value num[2] = {Value::nil(), Value::integer(4)};
  Value real[2] = {Value::nil(), Value::real(0.5)};
  Value symv[2] = {Value::nil(), sym("a")};
  Value nil[2] = {Value::nil(), Value::nil()};
  EXPECT_TRUE(eval_alpha_test(le, num));
  EXPECT_TRUE(eval_alpha_test(le, real));
  EXPECT_FALSE(eval_alpha_test(le, symv));
  EXPECT_FALSE(eval_alpha_test(le, nil));
}

TEST(Folding, ContradictoryConstantsAreAlwaysFalse) {
  const std::vector<AlphaTest> ab = {
      const_test(3, ops5::PredOp::Eq, sym("a")),
      const_test(3, ops5::PredOp::Eq, sym("b"))};
  for (const Value& v : probe_values()) EXPECT_FALSE(all_pass(ab, v));
  EXPECT_FALSE(all_pass(ab, sym("a")));
  EXPECT_FALSE(all_pass(ab, sym("b")));
  // Int 2 and float 2.0 are OPS5-equal: NOT a contradiction.
  const std::vector<AlphaTest> two = {
      const_test(3, ops5::PredOp::Eq, Value::integer(2)),
      const_test(3, ops5::PredOp::Eq, Value::real(2.0))};
  EXPECT_TRUE(all_pass(two, Value::integer(2)));
  EXPECT_TRUE(all_pass(two, Value::real(2.0)));
  EXPECT_FALSE(all_pass(two, Value::integer(3)));
}

}  // namespace
}  // namespace psme::rete
