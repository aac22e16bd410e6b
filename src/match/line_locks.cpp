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

}  // namespace psme::match
