// Record/replay/fault harness: whole-run orchestration over src/rr/.
//
// The primitives in recorder.hpp / replay.hpp / fault.hpp are per-engine
// hooks; this header packages them into the three experiments the tooling
// and tests run:
//
//  - record_run:      build an engine from a RunSpec, record it, return the
//                     self-contained ReplayLog.
//  - replay_run:      rebuild the engine a log describes (mode, discipline,
//                     program source and initial wmes all come from the
//                     header), re-run it under the recorded schedule, and
//                     report divergences.
//  - run_with_faults: run a sequential reference and a faulted parallel run
//                     of the same spec, and check the faulted run
//                     reconverged (same firing trace, same per-cycle
//                     digests). WorkerDeath recovery goes through
//                     serve::Checkpoint: stop at restart_at_cycle, capture,
//                     restore into a fresh engine, continue.
//  - fuzz_one:        seed -> random program + random fault plan -> verdict;
//                     failing plans are shrunk (greedy op-removal ddmin,
//                     then charge- and cycle-prefix reduction) to a minimal
//                     reproducer, serializable as a psme.rr.fuzz.v1
//                     artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "rr/fault.hpp"
#include "rr/log.hpp"
#include "rr/replay.hpp"
#include "workloads/workloads.hpp"

namespace psme::obs {
struct Observability;
}

namespace psme::rr {

// One runnable experiment: a workload plus the engine shape to run it on.
// String fields use the engine vocabulary's names (engine/engine.hpp),
// as LogHeader does; mode is one of seq, threads, sim.
struct RunSpec {
  workloads::Workload workload;
  std::string mode = "threads";
  std::string scheduler = "central";
  std::string lock_scheme = "simple";
  std::string strategy = "lex";
  int match_processes = 2;
  int task_queues = 1;
  std::uint64_t seed = 0;
  std::uint64_t max_cycles = 1'000'000;
  // Store per-instantiation conflict-set hashes in the log (entry-level
  // divergence diffs; bigger logs).
  bool store_cs_entries = true;
};

// Engine shape -> EngineConfig for psme::Engine (rr hooks left null for
// the caller). The names go through the engine vocabulary
// (engine/engine.hpp); an unknown name, or a mode other than seq, threads
// or sim, throws std::invalid_argument. replay_run applies the same
// conversion to a log header and throws std::runtime_error instead.
EngineConfig config_from(const RunSpec& spec);

struct RecordedRun {
  ReplayLog log;
  RunResult result;
};
RecordedRun record_run(const RunSpec& spec,
                       obs::Observability* obs = nullptr);

struct ReplayOutcome {
  ReplayReport report;
  RunResult result;
  std::vector<FiringRecord> trace;
};
// Throws std::runtime_error if the log's source fails to compile or its
// program fingerprint doesn't match the compiled program.
ReplayOutcome replay_run(const ReplayLog& log,
                         obs::Observability* obs = nullptr);

struct FaultRunResult {
  bool reconverged = false;
  // Cycle of the first digest/trace difference vs the sequential reference
  // (0 = initial-wme load), when !reconverged.
  std::size_t first_bad_cycle = 0;
  std::string detail;
  bool used_checkpoint_restart = false;
  RunResult result;
  std::vector<FiringRecord> trace;
};
// With restart_at_cycle > 0 the faulted run is stopped at that cycle,
// checkpointed, and resumed fault-free in a fresh engine (the WorkerDeath
// recovery path). The reference is always a sequential run of `spec`.
FaultRunResult run_with_faults(const RunSpec& spec, const FaultPlan& plan,
                               std::uint64_t restart_at_cycle = 0);

struct FuzzOptions {
  bool fast = false;           // smaller random programs, lower cycle cap
  std::string mode = "sim";    // engine mode for the faulted run
  std::string scheduler = "central";
  // Adds a LoseTask op (a genuine bug) to the drawn plan; the run is then
  // expected to fail and the shrinker to isolate the bad op.
  bool seed_bug = false;
};

struct FuzzOutcome {
  std::uint64_t seed = 0;
  FaultPlan plan;
  bool passed = false;
  std::size_t first_bad_cycle = 0;
  std::string detail;
  // Only meaningful when !passed:
  FaultPlan shrunk;
  std::uint64_t shrunk_max_cycles = 0;
};

// The RunSpec fuzz_one(seed, opt) runs (exposed so tests can re-run the
// shrunk plan against the very same spec).
RunSpec fuzz_spec(std::uint64_t seed, const FuzzOptions& opt);
FuzzOutcome fuzz_one(std::uint64_t seed, const FuzzOptions& opt);
// Greedy op-removal ddmin + charge reduction: smallest sub-plan of `plan`
// that still fails `spec`. Returns `plan` unchanged if it doesn't fail.
FaultPlan shrink_plan(const RunSpec& spec, const FaultPlan& plan);

// "psme.rr.fuzz.v1" artifact for a failing (or passing) fuzz verdict.
obs::Json fuzz_artifact(const FuzzOutcome& outcome);

}  // namespace psme::rr
