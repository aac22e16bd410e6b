// Recorder: captures one engine run into a ReplayLog.
//
// Wire a Recorder into EngineOptions::rr_record and the engine will call
//  - on_commit(ep, task) from worker `ep` at the task's *commit point*:
//    for join tasks, while still inside the line-lock region that orders
//    the task against conflicting activations of the same hash line; for
//    Root/Terminal tasks (which commute — roots only read shared state,
//    terminals are applied at quiescence), after the kernel
//    switch but before the emissions are published. Appending inside the
//    lock is what makes the log a valid serialization: completion order is
//    not one, because a worker can be descheduled between releasing its
//    line and logging, letting a later lock epoch log first — replayed in
//    that inverted order, the second task's probe misses the first's entry
//    and a recorded child is never emitted. Logging before the emission
//    push also keeps the log causal (a child never appears before its
//    parent), and lock-contention requeues stay invisible (a requeued task
//    records once, when it finally commits).
//  - on_quiescent(wm, cs) from the control thread at every quiescent point
//    (after the initial wme load and after each cycle's match phase). This
//    seals the pops recorded since the previous quiescence into a
//    CycleRecord alongside the WM/conflict-set digests.
//
// After run(), finish() packages the cycles with a header + firing trace.
#pragma once

#include <vector>

#include "common/spinlock.hpp"
#include "rr/log.hpp"

namespace psme {
class WorkingMemory;
class ConflictSet;
}  // namespace psme

namespace psme::obs {
struct Observability;
}

namespace psme::rr {

class Recorder {
 public:
  // With store_cs_entries, every cycle also records the sorted
  // per-instantiation hashes so a later divergence can be diffed at entry
  // level (bigger logs; off by default).
  explicit Recorder(bool store_cs_entries = false)
      : store_cs_entries_(store_cs_entries) {}

  // Registers psme.rr.record.* counters; optional.
  void attach(obs::Observability* obs);

  // Thread-safe; called by workers (and the control thread when match runs
  // inline). For join tasks the caller must still hold the line lock that
  // serializes it against conflicting tasks (see file comment).
  void on_commit(unsigned ep, const match::Task& task);

  // Control thread only, at quiescent points.
  void on_quiescent(const WorkingMemory& wm, const ConflictSet& cs);

  ReplayLog finish(LogHeader header, std::vector<FiringRecord> trace);

  std::size_t cycles_recorded() const { return cycles_.size(); }

 private:
  bool store_cs_entries_;
  SpinLock mu_;  // guards pending_
  std::vector<PopRecord> pending_;
  std::vector<CycleRecord> cycles_;
  obs::Observability* obs_ = nullptr;
};

}  // namespace psme::rr
