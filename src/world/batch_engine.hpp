// BatchEngine: N worlds, one scheduler, one compiled program image.
//
// The ROADMAP's architectural unlock: instead of one engine per session,
// a single BatchEngine owns a WorldPool and feeds the existing Scheduler
// interface a (world, task) stream. Tasks from different worlds interleave
// freely — a worker that pops world 7's join activation and then world 31's
// runs the same compiled join tests back to back, so dispatch overhead
// amortizes and the shared network stays cache-warm across worlds.
//
// Execution modes (EngineOptions::match_processes):
//  - 0 (inline): match drains on the calling thread, per world. Different
//    worlds touch disjoint state, so the serve layer may run
//    run_session(a) and run_session(b) concurrently from different threads
//    (a != b). This is the serving configuration.
//  - k > 0 (threaded): the threaded executor ParallelEngine also runs
//    (match::WorkerPool) executes the combined task stream of all worlds;
//    run_all() drives every world through its recognize-act cycles with
//    ONE global quiescence barrier per batch round instead of one per
//    world per cycle. The pool honours the FaultInjector and, with
//    EngineOptions::obs set, records one trace event per task.
//
// Locking (threaded mode): worlds have private hash tables but share one
// LineLocks array. Each world XORs its own lock salt into its bucket
// lines (match::PoolWorld), so tasks from different worlds may
// false-share a lock (harmless) but never false-NOT-share one.
//
// Determinism: per-world firing sequences equal a solo SequentialEngine
// run of the same world (equal conflict sets at quiescence + deterministic
// conflict resolution); tests/world_equivalence_test.cpp proves it with
// per-cycle rr digests. Record/replay hooks are single-world: rr_record /
// rr_replay on the options are rejected.
#pragma once

#include <memory>

#include "match/worker_pool.hpp"
#include "world/world.hpp"

namespace psme::world {

class BatchEngine final : public SessionBackend {
 public:
  // Builds options.worlds worlds (must be >= 1). Throws invalid_argument
  // on nonsensical combinations (non-hash memories, rr record/replay).
  BatchEngine(const ops5::Program& program, EngineOptions options);
  ~BatchEngine() override;

  std::uint32_t num_worlds() const { return pool_.size(); }
  World& world(std::uint32_t w) { return pool_.world(w); }
  const World& world(std::uint32_t w) const { return pool_.world(w); }
  const ops5::Program& program() const { return pool_.image().program; }
  const rete::Network& network() const { return *pool_.image().network; }
  const EngineOptions& options() const { return options_; }

  // Session slots (engine/control.hpp), one per world. Working-memory
  // edits and checkpoints go between runs; serving a world on its own
  // needs inline match (run_session).
  void check_slot(std::uint32_t w) const override;
  const Wme* make(std::uint32_t w, std::string_view wme_literal) override {
    return pool_.world(w).make(wme_literal);
  }
  const Wme* make(
      std::uint32_t w, SymbolId cls,
      const std::vector<std::pair<SymbolId, Value>>& fields) override {
    return pool_.world(w).make(cls, fields);
  }
  void remove(std::uint32_t w, TimeTag tag) override {
    pool_.world(w).remove(tag);
  }
  const Control& control(std::uint32_t w) const override {
    return pool_.world(w);
  }
  void set_max_cycles(std::uint32_t w, std::uint64_t n) override {
    pool_.world(w).max_cycles = n;
  }
  // Runs one world to its stop; inline mode only (the threaded pool
  // executes all worlds' tasks and cannot quiesce a single world). Safe
  // to call concurrently for DIFFERENT worlds.
  RunResult run_session(std::uint32_t w) override;
  EngineSnapshot snapshot_session(std::uint32_t w) override {
    return pool_.world(w).snapshot(*pool_.world(w).cs);
  }
  void reset_session(std::uint32_t w) override {
    reset_world_state(pool_.world(w), program(), options_, pool_.endpoints());
  }
  void restore_session(std::uint32_t w, const EngineSnapshot& snap) override {
    pool_.world(w).restore(snap);
  }

  // Runs every world to halt / empty conflict set / its cycle cap, with
  // one global quiescence barrier per batch round. Works in both modes.
  void run_all();

  // Per-cycle digest capture (rr::wm_digest / rr::cs_digest at every
  // quiescent point, per world). Enable before running.
  void set_digest_capture(bool on) { digest_capture_ = on; }

  // Aggregated match-process statistics (threaded mode; valid after
  // run_all). Inline mode accumulates into each world's stats.match.
  const MatchStats& match_stats() const { return batch_match_stats_; }

 private:
  void submit_change(World& w, const Wme* wme, std::int8_t sign);
  // Routes a world's WM changes into the batch as (world, root-task) pairs.
  Control::Submit submit_to(World& w);
  // A world's quiescent point: Control::quiesced, then its digest row.
  void quiescent(World& w);

  EngineOptions options_;
  WorldPool pool_;
  bool digest_capture_ = false;
  MatchStats batch_match_stats_;
  // Threaded mode (match_processes > 0) only. Declared after the worlds
  // its workers use: its destructor joins them.
  std::unique_ptr<match::WorkerPool> workers_;
};

}  // namespace psme::world
