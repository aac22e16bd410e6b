#include "match/line_locks.hpp"

#include <cassert>

#include "match/machine.hpp"
#include "obs/metrics.hpp"

namespace psme::match {

namespace {
inline void sample_line_probes(MatchStats& stats, int si,
                               std::uint64_t probes) {
  stats.line_probes[si] += probes;
  stats.line_acquisitions[si] += 1;
  if (stats.line_probe_hist[si]) stats.line_probe_hist[si]->record(probes);
}

// Takes a line's lock and charges the acquisition; returns its probes.
inline std::uint64_t acquire(SpinLock& lock) {
  const std::uint64_t probes = lock.lock();
  charge(Machine::Cost::LockAcquire);
  return probes;
}
}  // namespace

LineLocks::LineLocks(std::uint32_t num_lines, LockScheme scheme)
    : scheme_(scheme), lines_(num_lines) {}

void LineLocks::lock_exclusive(std::uint32_t line, Side side,
                               MatchStats& stats) {
  const int si = side_index(side);
  sample_line_probes(stats, si, acquire(lines_[line].simple));
}

void LineLocks::unlock_exclusive(std::uint32_t line) {
  lines_[line].simple.unlock();
}

bool LineLocks::try_enter(std::uint32_t line, Side side, MatchStats& stats) {
  Line& l = lines_[line];
  const int si = side_index(side);
  const std::uint8_t mine = side == Side::Left ? kLeft : kRight;
  sample_line_probes(stats, si, acquire(l.guard));
  charge(Machine::Cost::MrswEnter);
  if (l.flag == kUnused || l.flag == mine) {
    l.flag = mine;
    ++l.users;
    l.guard.unlock();
    return true;
  }
  l.guard.unlock();
  return false;
}

void LineLocks::leave(std::uint32_t line) {
  Line& l = lines_[line];
  acquire(l.guard);
  assert(l.users > 0);
  if (--l.users == 0) l.flag = kUnused;
  l.guard.unlock();
}

bool LineLocks::try_enter_exclusive(std::uint32_t line, Side side,
                                    MatchStats& stats) {
  Line& l = lines_[line];
  const int si = side_index(side);
  sample_line_probes(stats, si, acquire(l.guard));
  charge(Machine::Cost::MrswEnter);
  if (l.flag == kUnused) {
    l.flag = kExclusive;
    l.users = 1;
    l.guard.unlock();
    return true;
  }
  l.guard.unlock();
  return false;
}

void LineLocks::leave_exclusive(std::uint32_t line) { leave(line); }

void LineLocks::lock_modification(std::uint32_t line, Side side,
                                  MatchStats& stats) {
  const int si = side_index(side);
  sample_line_probes(stats, si, acquire(lines_[line].modification));
  charge(Machine::Cost::MrswModification);
}

void LineLocks::unlock_modification(std::uint32_t line) {
  lines_[line].modification.unlock();
}

// Seqlock memory ordering. Writers mark the sequence odd with a relaxed
// store *after* taking the modification lock; every subsequent mutation of
// reader-visible bucket state goes through seq_store (a release store), so
// no mutation can be reordered before the odd mark. unlock_writer publishes
// the even sequence with a release store, ordering all mutations before it.
// Readers load the sequence with acquire and re-check it behind an acquire
// fence, so any data they read between begin and validate is ordered inside
// the window the two sequence values delimit. The counter is 32 bits: a
// false "unchanged" verdict would need 2^31 writer commits inside one
// speculative probe, which cannot happen.

std::uint32_t LineLocks::seq_begin(std::uint32_t line) const {
  const Line& l = lines_[line];
  for (;;) {
    const std::uint32_t s = l.seq.load(std::memory_order_acquire);
    if ((s & 1u) == 0) {
      charge(Machine::Cost::SeqRead);
      return s;
    }
    if (Machine* m = machine())
      m->relax();
    else
      SpinLock::cpu_relax();
  }
}

bool LineLocks::seq_validate(std::uint32_t line, std::uint32_t s0) const {
  std::atomic_thread_fence(std::memory_order_acquire);
  return lines_[line].seq.load(std::memory_order_relaxed) == s0;
}

bool LineLocks::try_writer_commit(std::uint32_t line, std::uint32_t s0,
                                  Side side, MatchStats& stats) {
  Line& l = lines_[line];
  sample_line_probes(stats, side_index(side), acquire(l.modification));
  charge(Machine::Cost::SeqRead);
  // Writers only advance the sequence while holding the lock we now own, so
  // this comparison cannot go stale before we mark the line odd ourselves.
  if (l.seq.load(std::memory_order_relaxed) != s0) {
    l.modification.unlock();
    return false;
  }
  l.seq.store(s0 + 1, std::memory_order_relaxed);
  charge(Machine::Cost::SeqWrite);
  return true;
}

void LineLocks::lock_writer(std::uint32_t line, Side side, MatchStats& stats) {
  Line& l = lines_[line];
  sample_line_probes(stats, side_index(side), acquire(l.modification));
  l.seq.store(l.seq.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  charge(Machine::Cost::SeqWrite);
}

void LineLocks::unlock_writer(std::uint32_t line) {
  Line& l = lines_[line];
  l.seq.store(l.seq.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
  l.modification.unlock();
}

}  // namespace psme::match
