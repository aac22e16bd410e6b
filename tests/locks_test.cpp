// SpinLock and hash-line lock schemes: mutual exclusion and the MRSW
// protocol's side rules.
#include "match/line_locks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/spinlock.hpp"

namespace psme::match {
namespace {

TEST(SpinLock, UncontendedAcquireIsOneProbe) {
  SpinLock lock;
  EXPECT_EQ(lock.lock(), 1u);
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLock, MutualExclusionUnderThreads) {
  SpinLock lock;
  std::uint64_t counter = 0;  // intentionally unsynchronized
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(SpinGuard, AccumulatesProbes) {
  SpinLock lock;
  std::uint64_t probes = 0;
  {
    SpinGuard g(lock, &probes);
    EXPECT_EQ(probes, 1u);
  }
  {
    SpinGuard g(lock, &probes);
  }
  EXPECT_EQ(probes, 2u);
}

TEST(LineLocks, SimpleSchemeCountsProbes) {
  LineLocks locks(8, LockScheme::Simple);
  MatchStats stats;
  locks.lock_exclusive(3, Side::Left, stats);
  locks.unlock_exclusive(3);
  locks.lock_exclusive(3, Side::Right, stats);
  locks.unlock_exclusive(3);
  EXPECT_EQ(stats.line_acquisitions[0], 1u);
  EXPECT_EQ(stats.line_acquisitions[1], 1u);
  EXPECT_DOUBLE_EQ(stats.line_contention(Side::Left), 1.0);
}

TEST(LineLocks, MrswSameSideShares) {
  LineLocks locks(4, LockScheme::Mrsw);
  MatchStats stats;
  EXPECT_TRUE(locks.try_enter(0, Side::Left, stats));
  EXPECT_TRUE(locks.try_enter(0, Side::Left, stats));   // same side: ok
  EXPECT_FALSE(locks.try_enter(0, Side::Right, stats)); // other side: no
  EXPECT_FALSE(locks.try_enter_exclusive(0, Side::Right, stats));
  locks.leave(0);
  EXPECT_FALSE(locks.try_enter(0, Side::Right, stats));  // one user left
  locks.leave(0);
  EXPECT_TRUE(locks.try_enter(0, Side::Right, stats));   // line free again
  locks.leave(0);
}

TEST(LineLocks, MrswExclusiveExcludesEverything) {
  LineLocks locks(4, LockScheme::Mrsw);
  MatchStats stats;
  EXPECT_TRUE(locks.try_enter_exclusive(1, Side::Left, stats));
  EXPECT_FALSE(locks.try_enter(1, Side::Left, stats));
  EXPECT_FALSE(locks.try_enter(1, Side::Right, stats));
  EXPECT_FALSE(locks.try_enter_exclusive(1, Side::Left, stats));
  locks.leave_exclusive(1);
  EXPECT_TRUE(locks.try_enter(1, Side::Right, stats));
  locks.leave(1);
}

TEST(LineLocks, LinesAreIndependent) {
  LineLocks locks(4, LockScheme::Mrsw);
  MatchStats stats;
  EXPECT_TRUE(locks.try_enter(0, Side::Left, stats));
  EXPECT_TRUE(locks.try_enter(1, Side::Right, stats));
  locks.leave(0);
  locks.leave(1);
}

TEST(LineLocks, MrswModificationLockSerializesWriters) {
  LineLocks locks(2, LockScheme::Mrsw);
  MatchStats stats;
  ASSERT_TRUE(locks.try_enter(0, Side::Left, stats));
  ASSERT_TRUE(locks.try_enter(0, Side::Left, stats));
  // Two same-side users; writes must serialize on the modification lock.
  std::atomic<int> in_critical{0};
  bool overlap = false;
  std::thread t1([&] {
    MatchStats s;
    locks.lock_modification(0, Side::Left, s);
    if (in_critical.fetch_add(1) != 0) overlap = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    in_critical.fetch_sub(1);
    locks.unlock_modification(0);
  });
  std::thread t2([&] {
    MatchStats s;
    locks.lock_modification(0, Side::Left, s);
    if (in_critical.fetch_add(1) != 0) overlap = true;
    in_critical.fetch_sub(1);
    locks.unlock_modification(0);
  });
  t1.join();
  t2.join();
  EXPECT_FALSE(overlap);
  locks.leave(0);
  locks.leave(0);
}

}  // namespace
}  // namespace psme::match
