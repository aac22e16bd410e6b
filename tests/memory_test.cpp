// BumpArena, token structure, hash tables, and MatchStats arithmetic.
#include "match/memory.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "engine/sequential_engine.hpp"
#include "workloads/workloads.hpp"

namespace psme::match {
namespace {

TEST(BumpArena, TokensChainAndIndex) {
  BumpArena arena;
  Wme w1, w2, w3;
  Token* t1 = arena.make_token(nullptr, &w1);
  Token* t2 = arena.make_token(t1, &w2);
  Token* t3 = arena.make_token(t2, &w3);
  EXPECT_EQ(t3->len, 3u);
  EXPECT_EQ(t3->wme_at(0), &w1);
  EXPECT_EQ(t3->wme_at(1), &w2);
  EXPECT_EQ(t3->wme_at(2), &w3);
  EXPECT_EQ(t1->len, 1u);
  EXPECT_EQ(t1->wme_at(0), &w1);
}

TEST(BumpArena, TokenContentEquality) {
  BumpArena arena;
  Wme w1, w2;
  Token* a = arena.make_token(arena.make_token(nullptr, &w1), &w2);
  Token* b = arena.make_token(arena.make_token(nullptr, &w1), &w2);
  Token* c = arena.make_token(arena.make_token(nullptr, &w2), &w1);
  EXPECT_TRUE(token_content_equal(a, b));  // different objects, same wmes
  EXPECT_FALSE(token_content_equal(a, c));
  EXPECT_FALSE(token_content_equal(a, a->parent));
  EXPECT_TRUE(token_content_equal(nullptr, nullptr));
  EXPECT_FALSE(token_content_equal(a, nullptr));
}

TEST(BumpArena, SurvivesManyAllocations) {
  BumpArena arena;
  const Token* prev = nullptr;
  Wme w;
  std::vector<const Token*> all;
  for (int i = 0; i < 50000; ++i) {
    prev = arena.make_token(i % 7 == 0 ? nullptr : prev, &w);
    all.push_back(prev);
  }
  EXPECT_GT(arena.bytes_allocated(), 50000u * sizeof(Token));
  // Entries from early blocks are still valid.
  EXPECT_EQ(all.front()->wme, &w);
  Entry* e = arena.make_entry();
  EXPECT_EQ(e->next, nullptr);
  EXPECT_EQ(e->neg_count.load(), 0);
}

// Flat-token layout invariants: the inline wme array and the parent-chain
// walk must agree at every length, and content equality must behave like
// an element-wise compare of the arrays.
TEST(Token, FlatArrayMatchesChainedWalkUpToLength32) {
  BumpArena arena;
  std::vector<std::unique_ptr<Wme>> wmes;
  const Token* t = nullptr;
  for (std::uint32_t len = 1; len <= 32; ++len) {
    wmes.push_back(std::make_unique<Wme>());
    t = arena.make_token(t, wmes.back().get());
    ASSERT_EQ(t->len, len);
    EXPECT_EQ(t->wme, wmes.back().get());
    // The flat array holds the full CE-ordered sequence...
    for (std::uint32_t i = 0; i < len; ++i)
      EXPECT_EQ(t->wme_at(i), wmes[i].get());
    // ...and the classic chained walk (back to front via `parent`)
    // reproduces it exactly.
    const Token* p = t;
    for (std::uint32_t i = len; i-- > 0; p = p->parent) {
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->wme, t->wme_at(i));
      EXPECT_EQ(p->len, i + 1);
    }
    EXPECT_EQ(p, nullptr);
  }
}

TEST(Token, ContentEqualityAcrossLengths) {
  BumpArena arena;
  std::vector<std::unique_ptr<Wme>> wmes;
  Wme other;
  const Token* a = nullptr;
  const Token* b = nullptr;
  for (std::uint32_t len = 1; len <= 32; ++len) {
    wmes.push_back(std::make_unique<Wme>());
    a = arena.make_token(a, wmes.back().get());
    b = arena.make_token(b, wmes.back().get());
    EXPECT_TRUE(token_content_equal(a, b)) << "len " << len;
    // A token differing in exactly one (front) position is unequal.
    const Token* c = len == 1 ? arena.make_token(nullptr, &other)
                              : arena.make_token(b->parent, &other);
    EXPECT_FALSE(token_content_equal(a, c)) << "len " << len;
    // Lengths differ: the shorter prefix is not equal to the longer.
    if (len > 1) EXPECT_FALSE(token_content_equal(a, b->parent));
  }
}

TEST(BumpArena, RejectsTokenLargerThanBlock) {
  // Hand-build an absurdly long parent (make_token checks the size before
  // touching the parent's array, so the array contents never get read).
  const std::uint32_t huge = 9000;
  static_assert(Token::flat_bytes(9000) > BumpArena::kMaxAlloc);
  std::vector<std::byte> raw(Token::flat_bytes(huge));
  Token* fake = new (raw.data()) Token();
  fake->len = huge;
  BumpArena arena;
  Wme w;
  EXPECT_THROW(arena.make_token(fake, &w), std::length_error);
}

TEST(EntryLayout, OneCacheLinePerEntryAndAlignedBuckets) {
  // A bucket (fast slot plus both chain heads) is exactly one line.
  EXPECT_EQ(sizeof(Bucket), 64u);
  EXPECT_EQ(alignof(Bucket), 64u);
  // Arena-made chain entries are cache-line aligned, live, and each owns
  // its line: no two share one, so neg_count updates never false-share.
  BumpArena arena;
  std::uintptr_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    Entry* e = arena.make_entry();
    const auto addr = reinterpret_cast<std::uintptr_t>(e);
    EXPECT_EQ(addr % 64, 0u);
    EXPECT_EQ(e->live, 1);
    if (prev != 0) {
      EXPECT_GE(addr > prev ? addr - prev : prev - addr, 64u);
    }
    prev = addr;
  }
  // Table buckets never share a cache line.
  HashTokenTable table(8);
  for (std::uint32_t i = 0; i < table.size(); ++i)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&table.bucket_at(i)) % 64, 0u);
}

TEST(Bucket, FastSlotThenChainIteration) {
  Bucket b;
  EXPECT_EQ(bucket_first(b), nullptr);
  b.fast.live = 1;
  EXPECT_EQ(bucket_first(b), &b.fast);
  EXPECT_EQ(bucket_next(b, &b.fast), nullptr);
  Entry heap;
  heap.live = 1;
  b.head = &heap;
  EXPECT_EQ(bucket_next(b, &b.fast), &heap);
  EXPECT_EQ(bucket_next(b, &heap), nullptr);
  // A freed fast slot drops out of iteration; the chain remains.
  b.fast.live = 0;
  EXPECT_EQ(bucket_first(b), &heap);
}

TEST(HashTokenTable, RoundsBucketCountUpToPowerOfTwo) {
  // Regression: a non-power-of-two count used to silently mask hashes
  // onto a subset of buckets.
  EXPECT_EQ(HashTokenTable(100).size(), 128u);
  EXPECT_EQ(HashTokenTable(0).size(), 1u);
  EXPECT_EQ(HashTokenTable(1).size(), 1u);
  EXPECT_EQ(HashTokenTable(512).size(), 512u);
  EXPECT_EQ(HashTokenTable(513).size(), 1024u);
  HashTokenTable t(100);
  for (std::uint64_t h : {0ull, 99ull, 100ull, 127ull, 128ull,
                          0xfeedfacecafef00dull}) {
    EXPECT_LT(t.line_of(h), t.size());
    EXPECT_EQ(&t.bucket(h), &t.bucket_at(t.line_of(h)));
  }
}

TEST(HashTokenTable, LineOfIsStableAndBounded) {
  HashTokenTable table(256);
  EXPECT_EQ(table.size(), 256u);
  for (std::uint64_t h : {0ull, 1ull, 255ull, 256ull, 0xdeadbeefull}) {
    const std::uint32_t line = table.line_of(h);
    EXPECT_LT(line, 256u);
    EXPECT_EQ(&table.bucket(h), &table.bucket_at(line));
  }
  // Same hash, same line; hashes differing only above the mask collide.
  EXPECT_EQ(table.line_of(5), table.line_of(5 + 256));
}

// The wall-clock engines default to 1024 one-line buckets, the bytes of
// 512 two-line buckets. The firing trace cannot depend on the line count;
// the probe's foreign residents roughly halve with twice the lines.
TEST(HashTokenTable, DefaultLinesHalveWeaverCollisionsInTheSameBytes) {
  EXPECT_EQ(std::size_t{kHashBuckets} * sizeof(Bucket), 512u * 128u);
  const auto w = workloads::weaver(16, 2);
  const auto program = ops5::Program::from_source(w.source);
  auto run = [&](std::optional<std::uint32_t> buckets) {
    EngineOptions opt;
    opt.hash_buckets = buckets;
    auto eng = std::make_unique<SequentialEngine>(program, opt);
    workloads::load(*eng, w);
    eng->run();
    return eng;
  };
  const auto def = run(std::nullopt);
  const auto paper = run(512u);
  EXPECT_EQ(def->trace(), paper->trace());
  const MatchStats& d = def->stats().match;
  const MatchStats& p = paper->stats().match;
  EXPECT_EQ(d.node_activations, p.node_activations);
  ASSERT_GT(p.line_collisions, 0u);
  EXPECT_LE(static_cast<double>(d.line_collisions),
            0.6 * static_cast<double>(p.line_collisions));
}

TEST(MatchStats, MergeSumsEverything) {
  MatchStats a, b;
  a.node_activations = 10;
  a.opp_examined[0] = 5;
  a.opp_activations[0] = 2;
  a.queue_probes = 7;
  a.queue_acquisitions = 3;
  a.line_collisions = 4;
  b.node_activations = 1;
  b.opp_examined[0] = 1;
  b.opp_activations[0] = 1;
  b.queue_probes = 2;
  b.queue_acquisitions = 2;
  b.line_collisions = 2;
  a.merge(b);
  EXPECT_EQ(a.node_activations, 11u);
  EXPECT_EQ(a.line_collisions, 6u);
  EXPECT_DOUBLE_EQ(a.mean_opp_examined(Side::Left), 2.0);
  EXPECT_DOUBLE_EQ(a.queue_contention(), 9.0 / 5.0);
}

TEST(MatchStats, MeansHandleZeroDenominators) {
  MatchStats s;
  EXPECT_DOUBLE_EQ(s.mean_opp_examined(Side::Left), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_same_del_examined(Side::Right), 0.0);
  EXPECT_DOUBLE_EQ(s.queue_contention(), 0.0);
  EXPECT_DOUBLE_EQ(s.line_contention(Side::Right), 0.0);
}

}  // namespace
}  // namespace psme::match
