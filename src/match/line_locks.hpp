// Hash-table line locking schemes (Section 3.2).
//
// A line is the pair of same-index buckets in the left and right token hash
// tables plus their extra-deletes lists; one node activation touches exactly
// one line. The two schemes of the paper:
//
//  - Simple: one exclusive spin lock per line. Cheap, but several
//    activations hitting the same line serialize completely.
//
//  - Mrsw (multiple-reader-single-writer variant): per line a flag
//    {Unused, Left, Right}, a user counter, lock 1 guarding flag+counter,
//    and lock 2 (the "modification lock") serializing token-list mutation.
//    Same-side activations share the line (their memory updates serialize
//    on lock 2; their opposite-memory probes run concurrently, safe because
//    the opposite side is excluded by the flag). An activation finding the
//    line held by the other side puts its task back on the queue.
//
// Negative-node activations take the line exclusively even under Mrsw
// (flag value Exclusive): a right activation of a negative node mutates
// match counts on *left* entries, which the side flag does not protect.
// This is the paper's own maxim — don't slow the common case to speed a
// rare one.
//
// A third scheme, optimistic sequence locks (lock-free opposite-memory
// probes validated against a per-line sequence counter at commit), was
// removed. Priced on the simulator's real protocol it lost to Simple on
// every measured row: 8-10% more per task at 1 worker, and 30622 vs 22443
// ns/task on Rubik at 16 workers. On real threads (1+3 on a
// 4-hardware-thread host) it was no faster: rubik's median match time was
// 28.1 ms against Simple's 15.5. See docs/memory-layout.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/spinlock.hpp"
#include "common/stats.hpp"

namespace psme::match {

enum class LockScheme : std::uint8_t { Simple, Mrsw };

class LineLocks {
 public:
  LineLocks(std::uint32_t num_lines, LockScheme scheme);

  LockScheme scheme() const { return scheme_; }

  // --- Simple scheme (also used for exclusive access under Mrsw) ---------
  void lock_exclusive(std::uint32_t line, Side side, MatchStats& stats);
  void unlock_exclusive(std::uint32_t line);

  // --- Mrsw scheme --------------------------------------------------------
  // Enter the line in `side` mode; false => other side active, requeue.
  bool try_enter(std::uint32_t line, Side side, MatchStats& stats);
  void leave(std::uint32_t line);
  // Exclusive entry through the Mrsw protocol (negative nodes).
  bool try_enter_exclusive(std::uint32_t line, Side side, MatchStats& stats);
  void leave_exclusive(std::uint32_t line);
  // The modification lock (lock 2), held only around the memory update.
  void lock_modification(std::uint32_t line, Side side, MatchStats& stats);
  void unlock_modification(std::uint32_t line);

 private:
  enum Flag : std::uint8_t { kUnused = 0, kLeft, kRight, kExclusive };

  // One cache line per lock line, like the data lines they guard. 17 bytes
  // used (3 x 4-byte TTAS locks, the 4-byte user count, the 1-byte side
  // flag), the rest padding.
  struct alignas(64) Line {
    SpinLock simple;                  // Simple scheme
    SpinLock guard;                   // Mrsw lock 1 (flag + counter)
    SpinLock modification;            // Mrsw lock 2
    std::uint32_t users = 0;
    std::uint8_t flag = kUnused;
  };
  static_assert(sizeof(Line) == 64,
                "a lock line must occupy exactly one cache line");
  static_assert(alignof(Line) == 64, "lock lines must not share cache lines");

  LockScheme scheme_;
  std::vector<Line> lines_;
};

}  // namespace psme::match
