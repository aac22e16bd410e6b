// The executor, PSM-E's one match protocol (Section 3): k match processes
// pop tasks, take hash-line locks around each join activation, and count
// TaskCount down. ParallelEngine drives it over its one world on threads;
// world::BatchEngine's threaded mode over all of its worlds, resolving each
// task's world from Task::world; sim::SimEngine on the virtual CPUs of its
// Multimax simulator, which call run_one() from fibers and price every
// step through match::Machine (match/machine.hpp).
//
// Three departures from the paper keep per-task synchronization off the
// hot path on real cores: the control thread runs tasks while it waits for
// quiescence instead of spinning; a task's last emission runs next on the
// same endpoint without a scheduler round trip (continuation-first); and
// Terminal tasks are buffered per endpoint and applied by the control at
// quiescence, so the conflict set's lines stay on the control's core.
//
// The rr::Recorder, rr::FaultInjector and obs::Observability hooks are
// optional and fixed at construction; each is a null check on the task
// path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "match/kernel.hpp"
#include "match/line_locks.hpp"
#include "match/scheduler.hpp"

namespace psme::obs {
class TraceRecorder;
struct Observability;
}  // namespace psme::obs
namespace psme::rr {
class Recorder;
class FaultInjector;
}  // namespace psme::rr

namespace psme::match {

// One world a pool executes tasks for, addressed by Task::world.
struct PoolWorld {
  WorldContext* ctx = nullptr;
  // One token arena per worker endpoint, so allocation never synchronizes.
  BumpArena* arenas = nullptr;
  // A join task's lock line is its bucket line XOR this salt, which must
  // keep lines below the lock count. Any salt is sound: one (world, bucket)
  // always maps to one lock. Batched drivers salt each world differently
  // so equal buckets of different worlds spread over the shared locks.
  std::uint32_t lock_salt = 0;
};

// Runs one popped task — Root, Terminal, or a join under the Simple or
// MRSW line-lock protocol — then publishes its emissions through
// scheduler endpoint `ep` and counts it done. When the scheduler allows
// continuations, all emissions but the last are published and the last
// runs next here, on the popped task's TaskCount slot, and so on down the
// chain. A Terminal task is appended to `terminals` (see
// WorkerPool::apply_deferred_terminals). Statistics go to *ctx.stats;
// trace events (if `trace`) to stream ep + 1, or stream 0 for the control
// endpoint.
void execute_task(MatchContext& ctx, WorldContext& world,
                  const rete::Network& net, Scheduler& sched,
                  LineLocks& locks, const Task& task,
                  std::uint32_t lock_salt, std::vector<Task>& emit_buf,
                  std::vector<Task>& terminals, unsigned ep,
                  rr::Recorder* record, rr::FaultInjector* faults,
                  obs::TraceRecorder* trace);

// The match processes, plus the scheduler and line locks they share.
// Workers are spawned on the first begin_run() and parked between runs:
// per-run thread creation would dominate serving latency.
class WorkerPool {
 public:
  struct Hooks {
    rr::Recorder* record = nullptr;
    rr::FaultInjector* faults = nullptr;
    obs::Observability* obs = nullptr;
  };

  // Worker i uses scheduler endpoint i; the control thread uses
  // control_ep() == workers. Each PoolWorld needs an arena per endpoint,
  // the control's included.
  WorkerPool(const rete::Network& net, int workers,
             std::unique_ptr<Scheduler> sched, std::uint32_t lock_lines,
             LockScheme scheme, std::vector<PoolWorld> worlds, Hooks hooks);
  ~WorkerPool();

  Scheduler& scheduler() { return *sched_; }
  unsigned control_ep() const { return static_cast<unsigned>(workers_.size()); }

  // Wakes the workers. With an Observability hook, first re-arms its trace
  // (stream 0 = control, 1..k = workers) and attaches `control_stats` and
  // the workers' statistics to it. The tasks the control thread runs count
  // into `control_stats`. Under a match::Machine no thread is spawned or
  // woken: the machine's CPUs drive run_one() themselves.
  void begin_run(MatchStats& control_stats);
  // Runs tasks at control_ep() until the scheduler's TaskCount reaches
  // zero, then calls apply_deferred_terminals(). Control thread only,
  // between begin_run() and end_run().
  void wait_quiescent();
  // Runs every endpoint's buffered Terminal tasks through
  // process_terminal(), workers in endpoint order and then the control,
  // counting each on the endpoint that popped it, and empties the buffers.
  // Control only, once TaskCount has read zero: that acquire follows every
  // worker's last task_done, and so its last append. The simulator calls
  // this after its own quiescence wait.
  void apply_deferred_terminals();
  // Parks the workers and merges their statistics into `into`.
  void end_run(MatchStats& into);

  // Pops one task at endpoint `ep` and runs it, with its continuations;
  // false when none was popped.
  bool run_one(unsigned ep);

  std::uint64_t threads_spawned() const { return thread_spawns_; }
  std::uint64_t runs_started() const { return runs_started_; }

 private:
  // What one endpoint executes with.
  struct alignas(64) Executor {
    MatchContext ctx;
    std::vector<Task> emit_buf;
    std::vector<Task> terminals;
  };
  // Each thread writes its own statistics and executor on every task; the
  // cache-line alignment keeps those writes off lines other threads read,
  // such as a neighbouring worker's counters or active_.
  struct alignas(64) Worker {
    MatchStats stats;
    Executor ex;
    std::thread thread;
  };

  Executor make_executor(MatchStats* stats) const;
  void worker_main(unsigned ep);

  const rete::Network& net_;
  std::unique_ptr<Scheduler> sched_;
  LineLocks locks_;
  std::vector<PoolWorld> worlds_;
  Hooks hooks_;
  std::vector<std::unique_ptr<Worker>> workers_;
  Executor control_;  // re-armed by begin_run()
  // Workers spin on `active_` during a run and wait on `cv_` between runs;
  // `parked_` counts the waiters (under mu_).
  std::atomic<bool> active_{false};
  std::atomic<bool> shutdown_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  std::uint64_t thread_spawns_ = 0;
  std::uint64_t runs_started_ = 0;
};

}  // namespace psme::match
