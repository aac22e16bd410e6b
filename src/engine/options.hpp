// Engine configuration and run results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "match/kernel.hpp"
#include "match/line_locks.hpp"
#include "match/scheduler.hpp"
#include "runtime/conflict_set.hpp"

namespace psme::obs {
struct Observability;  // obs/observability.hpp
}  // namespace psme::obs

namespace psme::rr {
class Recorder;           // rr/recorder.hpp
class ReplayCoordinator;  // rr/replay.hpp
class FaultInjector;      // rr/fault.hpp
}  // namespace psme::rr

namespace psme {

// Per-engine defaults for an unset EngineOptions::scheduler. Real threads
// steal: the central queue's per-task lock handoff costs more than a task
// on modern cores. The Multimax simulator keeps the paper's central queues,
// the discipline its Tables 4-5 to 4-9 measure.
inline constexpr match::SchedulerKind kThreadedScheduler =
    match::SchedulerKind::Steal;
inline constexpr match::SchedulerKind kSimScheduler =
    match::SchedulerKind::Central;

struct EngineOptions {
  // vs1 (per-node linear lists) or vs2/parallel (global hash tables).
  match::MemoryStrategy memory = match::MemoryStrategy::Hash;
  CrStrategy strategy = CrStrategy::Lex;

  // Parallel engines: number of match processes (the "k" in the paper's
  // "1+k"); 0 means match runs inline on the control thread.
  int match_processes = 0;
  int task_queues = 1;
  match::LockScheme lock_scheme = match::LockScheme::Simple;

  // Task-scheduling discipline: the paper's central spin-locked queues
  // (task_queues of them) or per-worker work-stealing deques (see
  // docs/scheduling.md). Unset means the engine's own default:
  // kThreadedScheduler on the wall-clock threaded engines, kSimScheduler in
  // the simulator. steal_deque_capacity bounds each worker's deque
  // (rounded up to a power of two); overfull deques spill to a locked
  // overflow list.
  std::optional<match::SchedulerKind> scheduler;
  std::uint32_t steal_deque_capacity = match::WsDeque::kDefaultCapacity;

  // Token hash tables: number of buckets per side (power of two).
  std::uint32_t hash_buckets = 512;

  // Multi-world batching (src/world/): number of independent worlds a
  // world::BatchEngine hosts. 0 = not batching (the single-world Engine
  // facade). The facade rejects worlds > 1 — batched execution needs
  // BatchEngine — and any worlds value on engines that cannot share the
  // match kernel (LispStyle, Treat). See validate_options (engine.hpp).
  std::uint32_t worlds = 0;

  std::uint64_t max_cycles = 1'000'000;

  // Sink for the `write` RHS action; nullptr discards output.
  std::ostream* out = nullptr;

  // OPS5-style watch levels, printed to `out`:
  //   0 = silent, 1 = production firings, 2 = + working-memory changes.
  int watch = 0;

  // Optional observability sink (metrics registry + trace recorder, not
  // owned; must outlive the engine). The parallel and simulator engines
  // wire per-worker histogram shards and emit per-task trace events into
  // it; every engine's end-of-run statistics can be exported into its
  // registry with obs::Observability::export_run. See docs/observability.md.
  obs::Observability* obs = nullptr;

  // Workload seed, stamped into replay logs so recorded runs are
  // reproducible from the command line (tools/psme_cli --seed).
  std::uint64_t seed = 0;

  // Record/replay + fault injection (src/rr/, docs/replay.md). All
  // optional, not owned, must outlive the engine. rr_record captures
  // schedule decisions and cycle digests; rr_replay constrains the
  // scheduler to a recorded decision sequence and checks digests at each
  // quiescent point; rr_faults perturbs workers (stalls, drops, deaths)
  // according to a seeded plan.
  rr::Recorder* rr_record = nullptr;
  rr::ReplayCoordinator* rr_replay = nullptr;
  rr::FaultInjector* rr_faults = nullptr;
};

struct FiringRecord {
  std::uint32_t prod_index = 0;
  std::vector<TimeTag> timetags;  // positive CEs in order
  bool operator==(const FiringRecord&) const = default;
};

enum class StopReason : std::uint8_t { Halt, EmptyConflictSet, MaxCycles };

struct RunResult {
  StopReason reason = StopReason::EmptyConflictSet;
  RunStats stats;
};

}  // namespace psme
