// SimEngine: PSM-E on a simulated Encore Multimax.
//
// Runs the same executor as the threaded engine — match::WorkerPool's task
// step, the real schedulers and LineLocks — on P virtual CPUs whose clocks
// are denominated in NS32032 instructions (sim/cost_model.hpp). Each CPU is
// a fiber of the discrete-event Scheduler (sim/sim_core.hpp), which prices
// every step the executor charges and interleaves the CPUs in virtual time,
// so spin probes on the queue and hash-line locks follow the cost model.
// Speed-ups (Tables 4-5/4-6/4-8) and spin-count contention figures (Tables
// 4-7/4-9) are thereby reproduced deterministically on any host.
//
// The control process (one extra virtual CPU, the paper's "1" in "1+k")
// performs conflict resolution and RHS evaluation and does not match; with
// `pipeline` enabled each working-memory change is pushed as soon as the
// RHS produces it, so match overlaps RHS evaluation as in the paper. The
// uniprocessor baseline column of the speed-up tables is obtained with
// pipeline=false and one match process.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/engine_base.hpp"
#include "match/worker_pool.hpp"
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
  // RHS effects are buffered and pushed with their costs by the control CPU.
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override {}

 private:
  void control_main();
  void worker_main(unsigned ep);
  // Pushes one phase's root tasks with their RHS costs, then sleeps until
  // the match phase is quiescent.
  void run_phase(std::vector<std::pair<const Wme*, std::int8_t>> changes);

  SimConfig config_;
  match::HashTokenTable left_table_;
  match::HashTokenTable right_table_;
  match::WorldContext world_;  // the simulator's single world
  // One token arena per endpoint. Persistent across runs: the hash-table
  // memories keep the tokens allocated from them.
  std::vector<match::BumpArena> arenas_;
  match::WorkerPool pool_;
  MatchStats control_stats_;

  // Live only during run():
  Scheduler* des_ = nullptr;
  SleepList idle_workers_;
  SleepList control_wait_;
  bool shutdown_ = false;
  VTime sim_match_time_ = 0;
  VTime last_idle_ = 0;  // control idle time in the last quiescence wait

  double sim_total_seconds_ = 0;
};

}  // namespace psme::sim
