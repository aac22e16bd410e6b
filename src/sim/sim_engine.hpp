// SimEngine: PSM-E on a simulated Encore Multimax.
//
// Runs the same match kernel and control loop as the threaded engine, but
// on P virtual processors with clocks denominated in NS32032 instructions
// (sim/cost_model.hpp). Queue and hash-line locks are simulated
// test-and-test-and-set locks whose waiting time and probe counts follow
// the cost model, so speed-ups (Tables 4-5/4-6/4-8) and spin-count
// contention figures (Tables 4-7/4-9) are reproduced deterministically on
// any host — including this repository's single-CPU build machine, which
// cannot demonstrate real wall-clock speedup.
//
// The control process (one extra virtual CPU, the paper's "1" in "1+k")
// performs conflict resolution and RHS evaluation; with `pipeline` enabled
// each working-memory change is pushed as soon as the RHS produces it, so
// match overlaps RHS evaluation as in the paper. The uniprocessor baseline
// column of the speed-up tables is obtained with pipeline=false and one
// match process.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "engine/engine_base.hpp"
#include "match/line_locks.hpp"
#include "match/task_queue.hpp"
#include "sim/cost_model.hpp"
#include "sim/sim_core.hpp"

namespace psme::sim {

struct SimConfig {
  CostModel cost;
  bool pipeline = true;  // overlap match with RHS evaluation

  // Extensions the paper describes but did not build:
  //  - hardware_scheduler: Gupta's hardware task scheduler (Section 3.2) —
  //    task push/pop become single uncontended bus transactions;
  //  - overlap_cr: overlap conflict resolution with the tail of the match
  //    phase (footnote 3) — CR work is absorbed into the control process's
  //    idle wait, modelling speculative CR with perfect prediction.
  bool hardware_scheduler = false;
  bool overlap_cr = false;
};

class SimEngine : public EngineBase {
 public:
  SimEngine(const ops5::Program& program, EngineOptions options,
            SimConfig config = {});
  ~SimEngine() override;

  RunResult run() override;

  const MatchStats& match_stats() const { return ctl_.stats.match; }
  // Virtual seconds spent in match (sum over cycles of first-change-pushed
  // to TaskCount==0), at the cost model's clock rate.
  double sim_match_seconds() const { return ctl_.stats.sim_match_seconds; }
  double sim_total_seconds() const { return sim_total_seconds_; }

 protected:
  // RHS effects are buffered and replayed with costs by the control CPU.
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override {}

 private:
  struct SimQueue {
    SimLock lock;
    std::deque<match::Task> items;
  };
  // Work-stealing endpoint (options_.scheduler == Steal): the owner pushes
  // and pops at the back, thieves take from the front — the virtual-time
  // image of match::WsDeque, with the same bounded-capacity overflow
  // discipline behind a simulated lock.
  struct SimDeque {
    std::deque<match::Task> items;
    std::deque<match::Task> overflow;
    SimLock overflow_lock;
  };
  struct MrswLine {
    SimLock guard;
    SimLock modification;
    std::uint8_t flag = 0;  // 0 unused, 1 left, 2 right, 3 exclusive
    std::uint32_t users = 0;
  };
  // Seqlock discipline: the writer lock (the threaded engine's
  // modification lock) plus a commit counter standing in for the sequence
  // word — commits that land between a task's first speculative read and
  // its lock acquisition are exactly the torn attempts it would retry.
  struct SeqLine {
    SimLock writer;
    std::uint64_t commits = 0;
  };
  struct WorkerState {
    SimCpu* cpu = nullptr;
    match::BumpArena arena;
    MatchStats stats;
    unsigned hint = 0;
    unsigned id = 0;  // scheduler endpoint (steal discipline)
    match::MatchContext ctx;
  };
  match::WorldContext world_;  // the simulator's single world

  Proc control_main();
  Proc worker_main(WorkerState& w);
  SubTask<bool> push_task(SimCpu& cpu, match::Task task, unsigned hint,
                          MatchStats& stats, bool is_requeue);
  SubTask<bool> pop_task(SimCpu& cpu, match::Task* out, unsigned hint,
                         MatchStats& stats);
  // Steal discipline (virtual-time analogue of WorkStealingScheduler).
  // `who` is the endpoint: worker i -> i, control -> match_processes.
  bool steal_mode() const {
    return options_.scheduler.value_or(kSimScheduler) ==
           match::SchedulerKind::Steal;
  }
  SubTask<bool> steal_push(SimCpu& cpu, match::Task task, unsigned who,
                           MatchStats& stats, bool is_requeue);
  SubTask<bool> steal_push_batch(SimCpu& cpu,
                                 const std::vector<match::Task>& tasks,
                                 unsigned who, MatchStats& stats);
  SubTask<bool> steal_pop(SimCpu& cpu, match::Task* out, unsigned who,
                          MatchStats& stats);
  // Await-free readiness check closing the missed-wakeup window between a
  // failed steal sweep and going to sleep.
  bool any_deque_ready() const;

  // --- record/replay (src/rr/) -----------------------------------------
  bool replay_mode() const { return options_.rr_replay != nullptr; }
  // Replay serializes execution, so the one endpoint whose turn it is must
  // wake: broadcast instead of wake_one.
  void wake_for_push(SimCpu& cpu);
  // Runnable tasks across whichever structure the discipline uses.
  std::size_t queued_total() const;
  bool have_fp(std::uint64_t fp) const;
  bool take_by_fp(std::uint64_t fp, match::Task* out);
  bool take_any(match::Task* out);
  // Pop constrained to the recorded schedule (replaces pop_task/steal_pop
  // when replaying).
  SubTask<bool> replay_pop(SimCpu& cpu, match::Task* out, unsigned who,
                           MatchStats& stats);
  // Returns false if the task was requeued (MRSW opposite-side conflict).
  SubTask<bool> join_task(SimCpu& cpu, WorkerState& w, match::Task task,
                          std::vector<match::Task>& emit);


  SimConfig config_;
  std::unique_ptr<match::HashTokenTable> left_table_;
  std::unique_ptr<match::HashTokenTable> right_table_;

  // Live only during run():
  std::unique_ptr<Scheduler> sched_;
  std::vector<SimQueue> queues_;
  std::vector<SimDeque> deques_;  // steal discipline: P workers + control
  std::vector<SimLock> simple_lines_;
  std::vector<MrswLine> mrsw_lines_;
  std::vector<SeqLine> seq_lines_;
  // Persistent across runs: the hash-table memories hold tokens allocated
  // from the workers' arenas, so worker state must outlive any single run.
  std::vector<std::unique_ptr<WorkerState>> workers_;
  SimCpu* control_cpu_ = nullptr;
  MatchStats control_stats_;
  std::int64_t task_count_ = 0;
  SleepList idle_workers_;
  SleepList control_wait_;
  bool shutdown_ = false;
  VTime sim_match_time_ = 0;

  double sim_total_seconds_ = 0;
};

}  // namespace psme::sim
