// Shared control-process logic for the OPS5 engines.
//
// EngineBase owns everything except match scheduling: the compiled program
// image, the session's Control (working memory, trace, stats; see
// engine/control.hpp), the conflict set, and the recognize-act cycle.
// Subclasses decide how a working-memory change reaches the matcher
// (inline, task queues + threads, or the Multimax simulator) and what
// "wait for the match phase to finish" means.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "engine/control.hpp"
#include "engine/options.hpp"
#include "match/memory.hpp"
#include "ops5/parser.hpp"
#include "ops5/program.hpp"
#include "rete/builder.hpp"
#include "rete/network.hpp"
#include "runtime/conflict_set.hpp"
#include "runtime/rhs.hpp"
#include "runtime/working_memory.hpp"

namespace psme {

class EngineBase {
 public:
  EngineBase(const ops5::Program& program, EngineOptions options);
  virtual ~EngineBase() = default;

  // Adds a wme before (or between) runs; e.g. "(goal ^type find)".
  const Wme* make(std::string_view wme_literal) {
    return ctl_.make(wme_literal);
  }
  const Wme* make(SymbolId cls,
                  const std::vector<std::pair<SymbolId, Value>>& fields) {
    return ctl_.make(cls, fields);
  }
  // Removes a wme by timetag before (or between) runs.
  void remove(TimeTag tag) { ctl_.remove(tag); }

  // Runs recognize-act cycles until halt / empty conflict set / max_cycles.
  virtual RunResult run();

  // Captures the engine state between runs (see EngineSnapshot). The wmes
  // queued by make()/remove() since the last run are part of the state:
  // they restore as wmes the resumed run feeds to the matcher first, which
  // is exactly what the uninterrupted run would have done.
  EngineSnapshot snapshot_state() const { return ctl_.snapshot(cs_); }
  // Injects a snapshot into a freshly constructed engine (no wmes made, no
  // runs yet). The next run() rebuilds the match memories from the restored
  // working memory and re-applies refraction before firing.
  void restore_state(const EngineSnapshot& snap) { ctl_.restore(snap); }

  // Serving support: adjusts the recognize-act cycle cap between runs, so
  // a session can run in deadline-checked slices.
  void set_max_cycles(std::uint64_t n) {
    options_.max_cycles = ctl_.max_cycles = n;
  }

  const Control& control() const { return ctl_; }
  const ops5::Program& program() const { return image_.program; }
  const rete::Network& network() const { return *image_.network; }
  const WorkingMemory& wm() const { return *ctl_.wm; }
  ConflictSet& conflict_set() { return cs_; }
  const std::vector<FiringRecord>& trace() const { return ctl_.trace; }
  const RunStats& stats() const { return ctl_.stats; }
  const EngineOptions& options() const { return options_; }

 protected:
  // Delivers one wme change to the matcher. The parallel engine pushes a
  // root task and returns; the sequential engine matches to fixpoint.
  virtual void submit_change(const Wme* wme, std::int8_t sign) = 0;
  // Blocks until the match phase is complete (TaskCount == 0).
  virtual void wait_quiescent() = 0;
  // Called at the start / end of run() (spawn / kill the match processes).
  virtual void begin_run() {}
  virtual void end_run() {}

  // Record/replay tap, called at every quiescent point (cycle boundary;
  // cycle 0 = initial wme load): advances the fault injector's cycle clock
  // and feeds WM/conflict-set digests to the recorder and/or replayer.
  // No-op unless EngineOptions carries rr hooks.
  void rr_quiescent_hook();

  EngineOptions options_;
  const ProgramImage image_;
  ConflictSet cs_;
  Control ctl_;
};

}  // namespace psme
