// Seeded, composable fault injection for the parallel engines.
//
// A FaultPlan is a list of FaultOps — each names a kind, a target worker
// endpoint, the cycle it arms at, how many times it fires, and a
// magnitude. FaultPlan::random(seed, workers) draws a reproducible plan;
// plans serialize to JSON so a failing seed can be shipped in a bug
// report.
//
// The FaultInjector is the hot-path view: engines consult it at the
// scheduling points named below and the injector consumes op charges with
// atomics (thread-safe, no locks). Fault kinds and where they bite:
//
//  - WorkerStall:      worker pauses before popping (threads: sleep
//                      `magnitude` microseconds; sim: spend `magnitude`
//                      virtual cycles).
//  - DelayLockRelease: worker holds each acquired hash-line lock an extra
//                      `magnitude` us / virtual cycles.
//  - DropRequeue:      a popped task is immediately requeued untouched
//                      (schedule perturbation; count is untouched, as in a
//                      real MRSW put-back).
//  - StealFail:        try_pop is forced to fail (models a lost steal-CAS
//                      race) — the worker retries.
//  - WorkerDeath:      from `at_cycle` on, the worker stops participating
//                      permanently (threads: parks; sim: its fiber
//                      returns). Recovery is the harness's job via
//                      serve::Checkpoint restore.
//  - LoseTask:         a popped task is *discarded* but still counted done
//                      — a true correctness bug. The engine quiesces with
//                      work missing; record/replay pins the damaged cycle.
//
// All kinds except LoseTask are benign perturbations: the engine must
// still reconverge to the sequential result (tests/rr_fault_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace psme::obs {
struct Observability;
}

namespace psme::rr {

enum class FaultKind : std::uint8_t {
  WorkerStall,
  DelayLockRelease,
  DropRequeue,
  StealFail,
  WorkerDeath,
  LoseTask,
};

std::string_view fault_kind_name(FaultKind kind);
bool fault_kind_from_name(std::string_view name, FaultKind* out);

struct FaultOp {
  FaultKind kind = FaultKind::WorkerStall;
  unsigned endpoint = 0;        // worker endpoint the fault targets
  std::uint64_t at_cycle = 0;   // armed once the engine reaches this cycle
  std::uint32_t count = 1;      // charges (ignored by WorkerDeath)
  std::uint32_t magnitude = 0;  // us (threads) / virtual cycles (sim)
  bool operator==(const FaultOp&) const = default;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultOp> ops;

  bool empty() const { return ops.empty(); }
  bool has_kind(FaultKind kind) const;
  // True when every op is benign (no LoseTask): the run must reconverge.
  bool benign() const { return !has_kind(FaultKind::LoseTask); }

  // Reproducible plan over `workers` worker endpoints (0..workers-1).
  // Draws 1-4 benign ops; kills at most workers-1 of them, and only when
  // workers >= 2. Never draws LoseTask — genuine bugs are opted into
  // explicitly (FuzzOptions::seed_bug).
  static FaultPlan random(std::uint64_t seed, int workers);

  std::string describe() const;
  obs::Json to_json() const;
  static bool from_json(const obs::Json& doc, FaultPlan* out,
                        std::string* error);
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // Registers the psme.rr.fault.injected counter; optional.
  void attach(obs::Observability* obs);

  // Control thread, at each quiescent point (and at run start).
  void set_cycle(std::uint64_t cycle);

  // Worker-side probes; each consumes one charge of a matching armed op
  // (except worker_dead, which is permanent).
  bool worker_dead(unsigned ep) const;
  std::uint32_t stall(unsigned ep) { return consume_magnitude(FaultKind::WorkerStall, ep); }
  std::uint32_t lock_delay(unsigned ep) { return consume_magnitude(FaultKind::DelayLockRelease, ep); }
  bool drop_requeue(unsigned ep) { return consume(FaultKind::DropRequeue, ep); }
  bool fail_pop(unsigned ep) { return consume(FaultKind::StealFail, ep); }
  bool lose_task(unsigned ep) { return consume(FaultKind::LoseTask, ep); }

  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  bool consume(FaultKind kind, unsigned ep);
  std::uint32_t consume_magnitude(FaultKind kind, unsigned ep);

  struct OpState {
    FaultOp op;
    std::atomic<std::uint32_t> remaining;
    explicit OpState(const FaultOp& o) : op(o), remaining(o.count) {}
  };

  std::vector<std::unique_ptr<OpState>> ops_;
  std::atomic<std::uint64_t> cycle_{0};
  std::atomic<std::uint64_t> injected_{0};
  obs::Observability* obs_ = nullptr;
};

}  // namespace psme::rr
