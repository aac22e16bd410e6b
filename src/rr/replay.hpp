// Replayer: re-executes a program under a recorded schedule.
//
// A ReplayCoordinator holds the flattened recorded decision sequence and a
// cursor, and arbitrates which endpoint may run the next task. Replay
// serializes the match phase — exactly one task is in flight at a time, in
// recorded completion order — which makes line locks uncontended, so no
// spontaneous requeues perturb the sequence. Workers that are not "up"
// simply wait (threads: poll; sim: sleep until woken).
//
// Divergence detection has two layers:
//  - schedule divergence: all of a phase's pushes have happened
//    (phase_pushed), nothing is in flight, tasks are queued — but the
//    recorded next task is not among them. The coordinator then flips to
//    *free mode* (any endpoint pops anything) so the engine drains to
//    quiescence instead of deadlocking, and the cycle digests tell the
//    rest of the story.
//  - digest divergence: at a quiescent point the live WM/conflict-set
//    digests differ from the recorded ones. The first such cycle is the
//    report's first_bad_cycle; when the log stored per-entry hashes the
//    report names the first differing instantiations.
//
// ParallelEngine and SimEngine both swap their Scheduler for
// make_replay_scheduler(); threads poll it, simulated CPUs sleep until a
// push or a completion wakes them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/spinlock.hpp"
#include "match/scheduler.hpp"
#include "rr/log.hpp"

namespace psme {
class WorkingMemory;
class ConflictSet;
namespace ops5 {
class Program;
}
namespace obs {
struct Observability;
}
}  // namespace psme

namespace psme::rr {

struct ReplayReport {
  std::size_t cycles_checked = 0;
  std::size_t pops_matched = 0;
  bool schedule_diverged = false;
  // Index into the flattened pop sequence where the schedule first could
  // not be followed.
  std::size_t schedule_divergence_pop = 0;
  bool digest_diverged = false;
  bool trace_diverged = false;  // filled by the harness after the run
  // Cycle number of the first digest mismatch (0 = the initial-wme load).
  std::size_t first_bad_cycle = 0;
  std::string detail;

  bool ok() const {
    return !schedule_diverged && !digest_diverged && !trace_diverged;
  }
};

class ReplayCoordinator {
 public:
  // `program` is used only to render conflict-set diffs in divergence
  // detail; may be nullptr.
  explicit ReplayCoordinator(const ReplayLog& log,
                             const ops5::Program* program = nullptr);

  // Registers psme.rr.replay.* metrics and emits a divergence trace event
  // on first divergence; optional.
  void attach(obs::Observability* obs);

  // --- control-thread hooks -------------------------------------------
  // All of a phase's pushes are in (the engine is about to wait for
  // quiescence). Arms stuck-schedule detection.
  void phase_pushed();
  // A new phase's pushes are starting. Disarms it. (The replay scheduler
  // calls this automatically on root-task pushes.)
  void phase_opened();
  // Quiescent point: checks digests against the recorded cycle.
  void on_quiescent(const WorkingMemory& wm, const ConflictSet& cs);

  // --- worker-side primitives -----------------------------------------
  enum class Verdict : std::uint8_t { Wait, Take, Free };
  // Endpoint `ep` asks to run a task. `queued` is the number of runnable
  // tasks visible to the caller; `have` tests whether a fingerprint is
  // among them. On Take, *fp_out is the fingerprint the caller must
  // dequeue and run (the cursor has advanced and the task is in flight).
  // On Free the caller pops anything (divergence already recorded).
  Verdict poll(unsigned ep, std::size_t queued,
               const std::function<bool(std::uint64_t)>& have,
               std::uint64_t* fp_out);
  // The in-flight task completed / was requeued (requeue rolls the cursor
  // back so the task is re-dispatched).
  void completed();
  void requeued();


  ReplayReport report() const;

 private:
  void diverge_locked(std::size_t at_pop, const char* why);

  const ReplayLog& log_;
  const ops5::Program* program_;
  obs::Observability* obs_ = nullptr;

  std::vector<PopRecord> seq_;          // flattened cycle pops
  std::vector<std::size_t> cycle_end_;  // cumulative pop count per cycle

  mutable SpinLock mu_;
  std::size_t cursor_ = 0;  // next recorded pop to dispatch
  std::size_t qi_ = 0;      // next cycle record to check
  std::atomic<bool> in_flight_{false};
  std::atomic<bool> phase_pushed_{false};
  std::atomic<bool> free_{false};
  ReplayReport report_;
};

// A match::Scheduler that holds every pushed task in one pending list and
// releases them in recorded order via the coordinator. Thread-safe;
// control endpoint = endpoints-1. It declines continuations, so the
// executor pushes every emission through it.
std::unique_ptr<match::Scheduler> make_replay_scheduler(
    ReplayCoordinator* coord, int endpoints);

}  // namespace psme::rr
