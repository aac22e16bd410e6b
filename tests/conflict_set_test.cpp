// Conflict set: insertion/removal, conjugate (out-of-order) handling,
// LEX/MEA ordering, refraction; a randomised differential check against a
// plain reference multiset, and a multi-threaded conjugate-pair stress.
#include "runtime/conflict_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <thread>

#include "common/symbol_table.hpp"
#include "match/memory.hpp"
#include "runtime/working_memory.hpp"

namespace psme {
namespace {

class ConflictSetTest : public ::testing::Test {
 protected:
  ConflictSetTest()
      : program_(ops5::Program::from_source(R"(
(literalize a x)
(p less-specific (a ^x <v>) --> (halt))
(p more-specific (a ^x <v> ^x <> nil) --> (halt))
)")),
        wm_(program_),
        cs_(program_) {}

  const Wme* wme() {
    return wm_.make(intern("a"), {Value::integer(1)});
  }
  static std::vector<const Wme*> inst(std::initializer_list<const Wme*> ws) {
    return std::vector<const Wme*>(ws);
  }

  ops5::Program program_;
  WorkingMemory wm_;
  ConflictSet cs_;
};

TEST_F(ConflictSetTest, InsertSelectRemove) {
  const Wme* w = wme();
  cs_.insert(0, inst({w}));
  EXPECT_EQ(cs_.size(), 1u);
  auto fired = cs_.select_and_fire(CrStrategy::Lex);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->prod_index, 0u);
  EXPECT_EQ(fired->wmes, inst({w}));
  // Refraction: the same instantiation does not fire twice.
  EXPECT_FALSE(cs_.select_and_fire(CrStrategy::Lex).has_value());
  cs_.remove(0, inst({w}));
  EXPECT_EQ(cs_.size(), 0u);
}

TEST_F(ConflictSetTest, PendingDeleteAnnihilatesLaterInsert) {
  const Wme* w = wme();
  cs_.remove(0, inst({w}));  // `-` arrives before `+`
  EXPECT_EQ(cs_.pending_deletes(), 1u);
  cs_.insert(0, inst({w}));
  EXPECT_EQ(cs_.size(), 0u);
  EXPECT_EQ(cs_.pending_deletes(), 0u);
  EXPECT_EQ(cs_.conjugate_hits(), 1u);
  EXPECT_FALSE(cs_.select_and_fire(CrStrategy::Lex).has_value());
}

TEST_F(ConflictSetTest, RefcountHandlesTransientDuplicates) {
  const Wme* w = wme();
  cs_.insert(0, inst({w}));
  cs_.insert(0, inst({w}));  // transient duplicate (parallel interleaving)
  cs_.remove(0, inst({w}));
  EXPECT_EQ(cs_.size(), 1u);  // one reference still live
  cs_.remove(0, inst({w}));
  EXPECT_EQ(cs_.size(), 0u);
}

TEST_F(ConflictSetTest, LexPrefersRecency) {
  const Wme* w1 = wme();
  const Wme* w2 = wme();  // more recent
  cs_.insert(0, inst({w1}));
  cs_.insert(0, inst({w2}));
  auto fired = cs_.select_and_fire(CrStrategy::Lex);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->wmes, inst({w2}));
}

TEST_F(ConflictSetTest, LexComparesSortedTagsThenLength) {
  const Wme* w1 = wme();
  const Wme* w2 = wme();
  const Wme* w3 = wme();
  // {w3, w1} vs {w3, w2}: equal first element, then w2 > w1.
  cs_.insert(0, inst({w3, w1}));
  cs_.insert(0, inst({w3, w2}));
  auto fired = cs_.select_and_fire(CrStrategy::Lex);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->wmes, inst({w3, w2}));
  // Prefix-equal but longer dominates.
  ConflictSet cs2(program_);
  cs2.insert(0, inst({w3}));
  cs2.insert(0, inst({w3, w1}));
  auto fired2 = cs2.select_and_fire(CrStrategy::Lex);
  EXPECT_EQ(fired2->wmes, inst({w3, w1}));
}

TEST_F(ConflictSetTest, SpecificityBreaksRecencyTies) {
  const Wme* w = wme();
  cs_.insert(0, inst({w}));  // less-specific
  cs_.insert(1, inst({w}));  // more-specific
  auto fired = cs_.select_and_fire(CrStrategy::Lex);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->prod_index, 1u);
}

TEST_F(ConflictSetTest, MeaPrefersFirstCeRecency) {
  const Wme* old1 = wme();
  const Wme* old2 = wme();
  const Wme* fresh = wme();
  // LEX would pick {old1, fresh} (contains the newest tag overall);
  // MEA compares the first CE's tag first: old2 > old1.
  cs_.insert(0, inst({old1, fresh}));
  cs_.insert(0, inst({old2, old1}));
  auto lex_winner = ConflictSet(program_).select_and_fire(CrStrategy::Lex);
  (void)lex_winner;
  auto mea = cs_.select_and_fire(CrStrategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(mea->wmes, inst({old2, old1}));
}

TEST_F(ConflictSetTest, DominatesIsDeterministicOnFullTies) {
  const Wme* w = wme();
  Instantiation a;
  a.prod_index = 0;
  a.wmes = inst({w});
  a.tags_desc = {w->timetag};
  Instantiation b = a;
  // Identical instantiations: neither strictly dominates.
  EXPECT_FALSE(cs_.dominates(a, b, CrStrategy::Lex) &&
               cs_.dominates(b, a, CrStrategy::Lex));
}

TEST_F(ConflictSetTest, SnapshotReflectsLiveEntries) {
  const Wme* w1 = wme();
  const Wme* w2 = wme();
  cs_.insert(0, inst({w1}));
  cs_.insert(1, inst({w2}));
  cs_.remove(0, inst({w1}));
  const auto snap = cs_.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].prod_index, 1u);
}

// --- Differential check against a reference multiset ------------------------

// The reference model: live instantiations with refcount and refraction,
// and parked `-` counts, keyed by (production, wme list).
struct RefModel {
  using Key = std::pair<std::uint32_t, std::vector<const Wme*>>;
  struct Entry {
    std::int32_t refcount = 0;
    bool fired = false;
  };
  std::map<Key, Entry> live;
  std::map<Key, std::uint32_t> pending;
  std::uint64_t conjugate_hits = 0;

  void insert(const Key& k) {
    auto pd = pending.find(k);
    if (pd != pending.end()) {
      ++conjugate_hits;
      if (--pd->second == 0) pending.erase(pd);
      return;
    }
    ++live[k].refcount;
  }
  void remove(const Key& k) {
    auto it = live.find(k);
    if (it == live.end()) {
      ++pending[k];
      return;
    }
    if (--it->second.refcount == 0) live.erase(it);
  }
  std::size_t pending_total() const {
    std::size_t n = 0;
    for (const auto& [k, c] : pending) n += c;
    return n;
  }
};

Instantiation as_instantiation(const RefModel::Key& k) {
  Instantiation inst;
  inst.prod_index = k.first;
  inst.wmes = k.second;
  for (const Wme* w : inst.wmes) inst.tags_desc.push_back(w->timetag);
  std::sort(inst.tags_desc.begin(), inst.tags_desc.end(),
            std::greater<TimeTag>());
  inst.refcount = 1;
  return inst;
}

class ConflictSetDifferential : public ::testing::TestWithParam<int> {
 protected:
  ConflictSetDifferential()
      : program_(ops5::Program::from_source(R"(
(literalize a x)
(p b-rule (a ^x <v>) --> (halt))
(p a-rule (a ^x <v>) --> (halt))
(p specific (a ^x <v> ^x <> nil) --> (halt))
)")),
        wm_(program_) {
    for (int i = 0; i < 8; ++i)
      pool_.push_back(wm_.make(intern("a"), {Value::integer(i)}));
  }

  ops5::Program program_;
  WorkingMemory wm_;
  std::vector<const Wme*> pool_;
};

TEST_P(ConflictSetDifferential, RandomInterleavingsMatchTheReference) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()));
  ConflictSet cs(program_);
  RefModel ref;
  match::BumpArena arena;
  auto pick = [&](std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
  // Small key space so duplicates, conjugates and refires are common.
  auto random_key = [&]() {
    RefModel::Key k;
    k.first = pick(3);
    const std::uint32_t len = 1 + pick(3);
    for (std::uint32_t i = 0; i < len; ++i) k.second.push_back(pool_[pick(4)]);
    return k;
  };
  auto as_token = [&](const std::vector<const Wme*>& wmes) {
    const Token* t = nullptr;
    for (const Wme* w : wmes) t = arena.make_token(t, w);
    return t;
  };

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint32_t op = pick(100);
    if (op < 35) {
      const RefModel::Key k = random_key();
      if (pick(2) == 0)
        cs.insert(k.first, as_token(k.second));
      else
        cs.insert(k.first, k.second);
      ref.insert(k);
    } else if (op < 70) {
      const RefModel::Key k = random_key();
      if (pick(2) == 0)
        cs.remove(k.first, as_token(k.second));
      else
        cs.remove(k.first, k.second);
      ref.remove(k);
    } else if (op < 80) {
      // Refraction restore: mark a live (or a missing) key by timetags.
      const RefModel::Key k = random_key();
      std::vector<TimeTag> tags;
      for (const Wme* w : k.second) tags.push_back(w->timetag);
      auto it = ref.live.find(k);
      EXPECT_EQ(cs.mark_fired(k.first, tags), it != ref.live.end());
      if (it != ref.live.end()) it->second.fired = true;
    } else if (op < 83) {
      const Wme* w = pool_[pick(4)];
      std::size_t expect = 0;
      for (auto it = ref.live.begin(); it != ref.live.end();) {
        const auto& ws = it->first.second;
        if (std::find(ws.begin(), ws.end(), w) != ws.end()) {
          it = ref.live.erase(it);
          ++expect;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(cs.remove_containing(w), expect);
    } else {
      const CrStrategy strategy =
          pick(2) == 0 ? CrStrategy::Lex : CrStrategy::Mea;
      // Brute-force maximum under `dominates` over the unfired entries.
      const RefModel::Key* best = nullptr;
      for (const auto& [k, e] : ref.live) {
        if (e.fired) continue;
        if (!best || cs.dominates(as_instantiation(k),
                                  as_instantiation(*best), strategy))
          best = &k;
      }
      for (const auto& [k, e] : ref.live) {
        if (best && !e.fired && &k != best) {
          EXPECT_FALSE(cs.dominates(as_instantiation(k),
                                    as_instantiation(*best), strategy));
        }
      }
      const auto peeked = cs.peek(strategy);
      const auto fired = cs.select_and_fire(strategy);
      ASSERT_EQ(fired.has_value(), best != nullptr);
      ASSERT_EQ(peeked.has_value(), best != nullptr);
      if (best) {
        EXPECT_EQ(fired->prod_index, best->first);
        EXPECT_EQ(fired->wmes, best->second);
        EXPECT_EQ(peeked->wmes, best->second);
        ref.live[*best].fired = true;
      }
    }

    ASSERT_EQ(cs.size(), ref.live.size());
    ASSERT_EQ(cs.pending_deletes(), ref.pending_total());
    ASSERT_EQ(cs.conjugate_hits(), ref.conjugate_hits);
    const RefModel::Key probe = random_key();
    ASSERT_EQ(cs.contains(probe.first, probe.second),
              ref.live.count(probe) == 1);
  }

  // The snapshot holds exactly the reference's live entries.
  std::map<RefModel::Key, bool> got;
  for (const Instantiation& inst : cs.snapshot()) {
    EXPECT_GT(inst.refcount, 0);
    EXPECT_TRUE(std::is_sorted(inst.tags_desc.begin(), inst.tags_desc.end(),
                               std::greater<TimeTag>()));
    got[{inst.prod_index, inst.wmes}] = inst.fired;
  }
  std::map<RefModel::Key, bool> want;
  for (const auto& [k, e] : ref.live) want[k] = e.fired;
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictSetDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Concurrency -------------------------------------------------------------

TEST(ConflictSetStress, FourThreadsOfConjugatePairsEndEmpty) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(p r (a ^x <v>) --> (halt))
(p q (a ^x <v>) --> (halt))
)");
  WorkingMemory wm(program);
  std::vector<const Wme*> pool;
  for (int i = 0; i < 6; ++i)
    pool.push_back(wm.make(intern("a"), {Value::integer(i)}));
  ConflictSet cs(program);

  constexpr int kThreads = 4;
  constexpr int kPairs = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(100 + t));
      match::BumpArena arena;
      for (int i = 0; i < kPairs; ++i) {
        // Every thread draws from one small key space, so threads collide
        // on the same entries and on each other's parked deletes.
        const std::uint32_t prod = rng() % 2;
        std::vector<const Wme*> wmes{pool[rng() % pool.size()],
                                     pool[rng() % pool.size()]};
        const Token* tok =
            arena.make_token(arena.make_token(nullptr, wmes[0]), wmes[1]);
        const bool minus_first = rng() % 2 == 0;
        const bool by_token = rng() % 2 == 0;
        for (int half = 0; half < 2; ++half) {
          const bool plus = (half == 0) != minus_first;
          if (plus && by_token) cs.insert(prod, tok);
          if (plus && !by_token) cs.insert(prod, wmes);
          if (!plus && by_token) cs.remove(prod, tok);
          if (!plus && !by_token) cs.remove(prod, wmes);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_EQ(cs.pending_deletes(), 0u);
  EXPECT_TRUE(cs.snapshot().empty());
  EXPECT_FALSE(cs.select_and_fire(CrStrategy::Lex).has_value());
}

}  // namespace
}  // namespace psme
