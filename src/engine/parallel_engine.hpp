// PSM-E's threaded engine: one control process (the caller's thread) plus
// k match processes sharing one Rete network, global left/right token hash
// tables with per-line locks, a task scheduler and a TaskCount counter
// (Section 3 of the paper). The control process pushes root tokens *while
// still evaluating the RHS*, so match pipelines with RHS evaluation.
//
// The match processes are the shared threaded executor (match::WorkerPool
// in match/worker_pool.hpp: worker loop, line-lock join dispatch, rr /
// fault / trace hooks) over the engine's one world. This class adds the
// EngineBase control loop: root pushes, the quiescence barrier, phase
// timing, and the replay scheduler. The pool's workers persist across
// runs, and so do their token arenas, which the persistent hash-table
// memories need when working memory carries over.
#pragma once

#include <chrono>
#include <vector>

#include "engine/engine_base.hpp"
#include "match/worker_pool.hpp"

namespace psme {

class ParallelEngine : public EngineBase {
 public:
  ParallelEngine(const ops5::Program& program, EngineOptions options);
  ~ParallelEngine() override;

  // Aggregated match-process statistics (valid after run()).
  const MatchStats& match_stats() const { return ctl_.stats.match; }

  // Pool lifetime counters: threads created so far, and runs started.
  // threads_spawned() stays at match_processes however many runs execute —
  // the thread-reuse guarantee the serving layer depends on.
  std::uint64_t threads_spawned() const { return pool_.threads_spawned(); }
  std::uint64_t runs_started() const { return pool_.runs_started(); }

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override;
  void begin_run() override;
  void end_run() override;

 private:
  match::HashTokenTable left_table_;
  match::HashTokenTable right_table_;
  match::WorldContext world_;  // the engine's single world
  // One token arena per scheduler endpoint: the match processes and the
  // control thread, which runs tasks while it waits for quiescence.
  std::vector<match::BumpArena> arenas_;
  // Declared after the state its workers use: its destructor joins them.
  match::WorkerPool pool_;
  std::chrono::steady_clock::time_point phase_start_;
  bool phase_open_ = false;
};

}  // namespace psme
