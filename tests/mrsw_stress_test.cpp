// Real-thread stress of the MRSW line protocol: same-side concurrency
// must be allowed, opposite sides excluded and modification serialized —
// verified with invariant-checking worker threads rather than fixed
// schedules. These run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "match/line_locks.hpp"

namespace psme::match {
namespace {

TEST(MrswStress, SideExclusionInvariantHolds) {
  LineLocks locks(4, LockScheme::Mrsw);
  constexpr int kThreads = 6;
  constexpr int kIters = 4000;

  // Per line: signed occupancy (+readers from left, -readers from right).
  std::atomic<int> occupancy[4] = {};
  std::atomic<bool> violation{false};

  auto worker = [&](int id) {
    Rng rng(static_cast<std::uint64_t>(id) + 1);
    MatchStats stats;
    for (int i = 0; i < kIters && !violation.load(); ++i) {
      const auto line = static_cast<std::uint32_t>(rng.below(4));
      const Side side = rng.chance(1, 2) ? Side::Left : Side::Right;
      const bool exclusive = rng.chance(1, 8);
      if (exclusive) {
        if (!locks.try_enter_exclusive(line, side, stats)) continue;
        if (occupancy[line].exchange(1000) != 0) violation = true;
        occupancy[line].store(0);
        locks.leave_exclusive(line);
        continue;
      }
      if (!locks.try_enter(line, side, stats)) continue;
      const int delta = side == Side::Left ? 1 : -1;
      const int prev = occupancy[line].fetch_add(delta);
      // Same-side sharing: previous occupancy must have the same sign (or
      // be zero); an opposite sign or an exclusive marker is a violation.
      if (prev * delta < 0 || prev >= 1000) violation = true;
      // Do a little "work" under the line.
      for (int spin = 0; spin < 20; ++spin) SpinLock::cpu_relax();
      occupancy[line].fetch_sub(delta);
      locks.leave(line);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  // All lines released.
  MatchStats stats;
  for (std::uint32_t line = 0; line < 4; ++line) {
    EXPECT_TRUE(locks.try_enter_exclusive(line, Side::Left, stats));
    locks.leave_exclusive(line);
  }
}

TEST(MrswStress, ModificationLockSerializesUnderSharing) {
  LineLocks locks(1, LockScheme::Mrsw);
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  std::uint64_t shared_counter = 0;  // mutated only under the mod lock
  std::atomic<int> in_mod{0};
  std::atomic<bool> violation{false};

  auto worker = [&]() {
    MatchStats stats;
    for (int i = 0; i < kIters;) {
      if (!locks.try_enter(0, Side::Left, stats)) continue;
      locks.lock_modification(0, Side::Left, stats);
      if (in_mod.fetch_add(1) != 0) violation = true;
      ++shared_counter;
      in_mod.fetch_sub(1);
      locks.unlock_modification(0);
      locks.leave(0);
      ++i;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(shared_counter,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MrswStress, ContentionStatsAreConsistent) {
  LineLocks locks(2, LockScheme::Mrsw);
  MatchStats stats;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(locks.try_enter(0, Side::Left, stats));
    locks.lock_modification(0, Side::Left, stats);
    locks.unlock_modification(0);
    locks.leave(0);
  }
  // Uncontended: every acquisition took exactly one probe.
  EXPECT_DOUBLE_EQ(stats.line_contention(Side::Left), 1.0);
  EXPECT_EQ(stats.line_acquisitions[side_index(Side::Left)], 200u);
}

}  // namespace
}  // namespace psme::match
