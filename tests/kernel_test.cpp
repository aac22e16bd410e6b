// Match-kernel unit tests: memory updates, conjugate pairs, probing,
// negative-node counts — against both memory backends.
#include "match/kernel.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/symbol_table.hpp"
#include "rete/builder.hpp"
#include "runtime/working_memory.hpp"

namespace psme::match {
namespace {

// One positive join over (a ^x <v>) (b ^y <v>).
constexpr const char* kJoinSrc = R"(
(literalize a x)
(literalize b y)
(p pair (a ^x <v>) (b ^y <v>) --> (halt))
)";

class KernelTest : public ::testing::TestWithParam<MemoryStrategy> {
 protected:
  KernelTest() : KernelTest(kJoinSrc) {}
  explicit KernelTest(const char* source)
      : program_(ops5::Program::from_source(source)),
        net_(rete::build_network(program_)),
        wm_(program_),
        cs_(program_),
        left_(64),
        right_(64),
        lists_(net_->num_list_memories()) {
    ctx_.strategy = GetParam();
    world_.left_table = &left_;
    world_.right_table = &right_;
    world_.list_mems = &lists_;
    world_.conflict_set = &cs_;
    ctx_.arena = &arena_;
    ctx_.stats = &stats_;
  }

  const Wme* make_a(int v) {
    return wm_.make(intern("a"), {Value::integer(v)});
  }
  const Wme* make_b(int v) {
    return wm_.make(intern("b"), {Value::integer(v)});
  }
  Task root(const Wme* w, int sign) {
    Task t;
    t.kind = TaskKind::Root;
    t.sign = static_cast<std::int8_t>(sign);
    t.wme = w;
    return t;
  }
  // Process a task and all its descendants; returns terminal delta count.
  void drain(Task t) {
    std::deque<Task> q{t};
    while (!q.empty()) {
      Task cur = q.front();
      q.pop_front();
      std::vector<Task> out;
      process_task(ctx_, world_, *net_, cur, out);
      for (const Task& n : out) q.push_back(n);
    }
  }

  ops5::Program program_;
  std::unique_ptr<rete::Network> net_;
  WorkingMemory wm_;
  ConflictSet cs_;
  HashTokenTable left_, right_;
  ListMemories lists_;
  BumpArena arena_;
  MatchStats stats_;
  MatchContext ctx_;
  WorldContext world_;
};

TEST_P(KernelTest, JoinProducesInstantiation) {
  drain(root(make_a(1), +1));
  EXPECT_EQ(cs_.size(), 0u);
  drain(root(make_b(1), +1));
  EXPECT_EQ(cs_.size(), 1u);
  drain(root(make_b(2), +1));  // no match
  EXPECT_EQ(cs_.size(), 1u);
  drain(root(make_b(1), +1));  // second match
  EXPECT_EQ(cs_.size(), 2u);
}

TEST_P(KernelTest, DeleteRetractsInstantiation) {
  const Wme* a = make_a(1);
  const Wme* b = make_b(1);
  drain(root(a, +1));
  drain(root(b, +1));
  EXPECT_EQ(cs_.size(), 1u);
  drain(root(b, -1));
  EXPECT_EQ(cs_.size(), 0u);
  // Re-add: match reappears (memories kept the left token).
  drain(root(make_b(1), +1));
  EXPECT_EQ(cs_.size(), 1u);
  drain(root(a, -1));
  EXPECT_EQ(cs_.size(), 0u);
}

TEST_P(KernelTest, OutOfOrderDeleteParksAndAnnihilates) {
  const Wme* a = make_a(1);
  // `-` before `+`: the delete parks on the extra-deletes list...
  drain(root(a, -1));
  EXPECT_EQ(cs_.size(), 0u);
  const std::uint64_t parked_conj = stats_.conjugate_hits;
  // ...and the later `+` annihilates it with no downstream effect.
  drain(root(a, +1));
  EXPECT_EQ(cs_.size(), 0u);
  EXPECT_GT(stats_.conjugate_hits, parked_conj);
  // The memory is now clean: a fresh + must match normally.
  drain(root(make_a(1), +1));
  drain(root(make_b(1), +1));
  EXPECT_EQ(cs_.size(), 1u);
}

TEST_P(KernelTest, StatsCountExaminedTokens) {
  for (int i = 0; i < 4; ++i) drain(root(make_a(1), +1));
  stats_ = MatchStats{};
  // A right activation probes the left memory: 4 tokens examined.
  drain(root(make_b(1), +1));
  EXPECT_EQ(stats_.opp_examined[side_index(Side::Right)], 4u);
  EXPECT_EQ(stats_.opp_activations[side_index(Side::Right)], 1u);
  EXPECT_EQ(cs_.size(), 4u);
}

TEST_P(KernelTest, DeleteSearchCountsSameMemory) {
  const Wme* b1 = make_b(1);
  const Wme* b2 = make_b(1);
  drain(root(b1, +1));
  drain(root(b2, +1));
  stats_ = MatchStats{};
  drain(root(b1, -1));
  EXPECT_EQ(stats_.same_del_activations[side_index(Side::Right)], 1u);
  EXPECT_GE(stats_.same_del_examined[side_index(Side::Right)], 1u);
}

// --- Delete search on a keyless node ---------------------------------------

// A cross-product join: no equality test, so every left token of the node
// hashes to one (node, key) and shares one bucket.
constexpr const char* kKeylessSrc = R"(
(literalize a x)
(literalize b y)
(p cross (a ^x <v>) (b ^y <w>) --> (halt))
)";

class KeylessKernelTest : public KernelTest {
 protected:
  KeylessKernelTest() : KernelTest(kKeylessSrc) {}
};

TEST_P(KeylessKernelTest, LeftDeleteFindsItsEntryAmongSameNodeResidents) {
  const Wme* b = make_b(0);
  drain(root(b, +1));
  std::vector<const Wme*> as;
  for (int i = 0; i < 10; ++i) {
    as.push_back(make_a(i));
    drain(root(as.back(), +1));
  }
  ASSERT_EQ(cs_.size(), 10u);
  stats_ = MatchStats{};
  // The `-` rebuilds its own token, so the search must match by content
  // among ten residents of the same node.
  drain(root(as[3], -1));
  const int si = side_index(Side::Left);
  EXPECT_EQ(stats_.same_del_activations[si], 1u);
  // Fast slot (as[0]), then the LIFO chain as[9]..as[3]: pinned from the
  // build before the delete search screened on fingerprints.
  EXPECT_EQ(stats_.same_del_examined[si], 8u);
  EXPECT_EQ(stats_.conjugate_hits, 0u);
  EXPECT_EQ(cs_.size(), 9u);
  EXPECT_FALSE(cs_.contains(0, {as[3], b}));
  EXPECT_TRUE(cs_.contains(0, {as[2], b}));
  EXPECT_TRUE(cs_.contains(0, {as[4], b}));
  // Nothing was parked: a second b pairs with exactly the nine survivors.
  drain(root(make_b(1), +1));
  EXPECT_EQ(cs_.size(), 18u);
}

// --- Negative-node behaviour ---------------------------------------------

constexpr const char* kNegSrc = R"(
(literalize a x)
(literalize b y)
(p absent (a ^x <v>) - (b ^y <v>) --> (halt))
)";

class NegKernelTest : public KernelTest {
 protected:
  NegKernelTest() : KernelTest(kNegSrc) {}
};

TEST_P(NegKernelTest, NegationBlocksAndUnblocks) {
  const Wme* a = make_a(1);
  drain(root(a, +1));
  EXPECT_EQ(cs_.size(), 1u);  // no blocker present
  const Wme* b = make_b(1);
  drain(root(b, +1));
  EXPECT_EQ(cs_.size(), 0u);  // blocked
  drain(root(b, -1));
  EXPECT_EQ(cs_.size(), 1u);  // unblocked again
}

TEST_P(NegKernelTest, BlockerPresentBeforeLeftInsert) {
  drain(root(make_b(1), +1));
  drain(root(make_a(1), +1));
  EXPECT_EQ(cs_.size(), 0u);
  drain(root(make_a(2), +1));  // different key: not blocked
  EXPECT_EQ(cs_.size(), 1u);
}

TEST_P(NegKernelTest, CountsTrackMultipleBlockers) {
  const Wme* b1 = make_b(1);
  const Wme* b2 = make_b(1);
  drain(root(make_a(1), +1));
  drain(root(b1, +1));
  drain(root(b2, +1));
  EXPECT_EQ(cs_.size(), 0u);
  drain(root(b1, -1));
  EXPECT_EQ(cs_.size(), 0u);  // still one blocker
  drain(root(b2, -1));
  EXPECT_EQ(cs_.size(), 1u);
}

TEST_P(NegKernelTest, LeftDeleteWhilePassing) {
  const Wme* a = make_a(1);
  drain(root(a, +1));
  EXPECT_EQ(cs_.size(), 1u);
  drain(root(a, -1));
  EXPECT_EQ(cs_.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, KernelTest,
                         ::testing::Values(MemoryStrategy::List,
                                           MemoryStrategy::Hash),
                         [](const auto& info) {
                           return info.param == MemoryStrategy::List
                                      ? "ListVs1"
                                      : "HashVs2";
                         });
INSTANTIATE_TEST_SUITE_P(Backends, KeylessKernelTest,
                         ::testing::Values(MemoryStrategy::List,
                                           MemoryStrategy::Hash),
                         [](const auto& info) {
                           return info.param == MemoryStrategy::List
                                      ? "ListVs1"
                                      : "HashVs2";
                         });
INSTANTIATE_TEST_SUITE_P(Backends, NegKernelTest,
                         ::testing::Values(MemoryStrategy::List,
                                           MemoryStrategy::Hash),
                         [](const auto& info) {
                           return info.param == MemoryStrategy::List
                                      ? "ListVs1"
                                      : "HashVs2";
                         });

}  // namespace
}  // namespace psme::match
