// The control process, written once (paper §3).
//
// In PSM-E one control process does conflict resolution and RHS
// evaluation whatever the match configuration. Every backend holds one
// Control per session: EngineBase (the sequential, threaded, Lisp, TREAT
// and simulated engines), each world::World of a BatchEngine, and each
// session of a shard::ShardGroup. A Control is that session's working
// memory, firing trace, run statistics and stop bookkeeping, plus the
// steps on them: WM edits, the stop check, the firing record and RHS
// evaluation, and checkpoint capture/restore. Backends keep only what is
// their own: how a WM change reaches the matcher, how the match phase
// quiesces, and (for shards) where the conflict set lives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/options.hpp"
#include "ops5/program.hpp"
#include "rete/network.hpp"
#include "runtime/conflict_set.hpp"
#include "runtime/rhs.hpp"
#include "runtime/working_memory.hpp"

namespace psme {

// Full session state at a quiescent point (between runs): enough to
// reconstruct working memory, the timetag counter, conflict-set refraction,
// and the firing-trace position in a fresh session of any backend. Match
// memories are NOT captured — a restored session rebuilds them by replaying
// the live wmes through the matcher, and the deterministic conflict
// resolution guarantees the resumed run continues the original trace.
// serve/checkpoint.hpp gives this a serialized form.
struct WmeSnapshot {
  TimeTag timetag = 0;
  SymbolId cls = 0;
  std::vector<Value> fields;
};

struct EngineSnapshot {
  TimeTag next_timetag = 1;
  std::vector<WmeSnapshot> wmes;      // live wmes, ascending timetag
  std::vector<FiringRecord> fired;    // live-but-fired instantiations
  std::vector<FiringRecord> trace;    // firing trace so far
  std::uint64_t cycles = 0;
  bool halted = false;
};

// The compiled program image: one Rete network and one compiled RHS per
// production. Built once per engine, world pool or shard group, and
// read-only afterwards.
struct ProgramImage {
  explicit ProgramImage(const ops5::Program& program);

  const ops5::Program& program;
  std::unique_ptr<rete::Network> network;
  std::vector<CompiledRhs> rhs;
};

struct Control {
  // Where fire() sends each RHS working-memory change: the backend's
  // matcher feed (a root task, a world's task stream, a shard delta queue).
  using Submit = std::function<void(const Wme*, std::int8_t sign)>;

  // Empties the session: a fresh WM for `program`, no trace, stats,
  // pending changes or refraction records; the cycle cap is `max_cycles`.
  void reset(const ops5::Program& program, std::uint64_t max_cycles);

  // WM edits before (or between) runs; the next run feeds them to the
  // matcher first (`pending`). e.g. make("(goal ^type find)").
  const Wme* make(std::string_view wme_literal);
  const Wme* make(SymbolId cls,
                  const std::vector<std::pair<SymbolId, Value>>& fields);
  void remove(TimeTag tag);
  // Hands every pending change to `submit` and clears the queue.
  void submit_pending(const Submit& submit);

  // The stop check before each select: true, with last_reason set, when
  // the session halted or reached max_cycles.
  bool stopped();
  // Records the firing of `inst` (cycle and firing counts, trace, the
  // watch-level-1 line) and evaluates its RHS against `wm`. Each WM change
  // prints at watch level 2 and goes to `submit`; `write` prints to
  // options.out; `halt` sets `halted`.
  void fire(const ProgramImage& image, const EngineOptions& options,
            const Instantiation& inst, const Submit& submit);
  // One recognize-act cycle on a local conflict set at quiescence: stop
  // check, select (ConflictSet::select_and_fire), fire. False, with
  // last_reason set, when the session stopped.
  bool cycle(const ProgramImage& image, const EngineOptions& options,
             ConflictSet& cs, const Submit& submit);

  // Checkpoint capture at a quiescent point. The fired (refraction) records
  // come from the conflict set, wherever it lives, and are sorted by
  // (production, timetags) so equal states give equal checkpoint bytes.
  EngineSnapshot snapshot(std::vector<FiringRecord> fired) const;
  EngineSnapshot snapshot(const ConflictSet& cs) const;
  // Replays a snapshot into a fresh session: the wmes queue as pending
  // changes and the refraction records wait in `restored_fired` for the
  // next run's first quiescent point. Throws logic_error if not fresh.
  void restore(const EngineSnapshot& snap);
  // The control process's share of a quiescent point: frees the wmes
  // removed since the last one, and (first point after a restore)
  // re-marks the restored fired instantiations in the rebuilt `cs`.
  void quiesced(ConflictSet& cs);

  RunResult result() const { return {last_reason, stats}; }

  // Starts each watch line: "" for a single engine, "[w3] " for world 3,
  // "[s1] " for shard session 1.
  std::string watch_prefix;
  std::unique_ptr<WorkingMemory> wm;
  std::vector<FiringRecord> trace;
  RunStats stats;
  bool halted = false;
  std::uint64_t max_cycles = 1'000'000;
  StopReason last_reason = StopReason::EmptyConflictSet;
  // Changes queued by make()/remove()/restore() since the last run.
  std::vector<std::pair<const Wme*, std::int8_t>> pending;
  // Refraction records queued by restore().
  std::vector<FiringRecord> restored_fired;
};

// A backend of session slots, each one Control: the one interface
// serve::Session runs on. An owned Engine is one slot, a
// world::BatchEngine has a slot per world and a shard::ShardGroup one per
// session. Slots are independent: calls for different slots may run
// concurrently where the backend says so.
class SessionBackend {
 public:
  SessionBackend() = default;
  SessionBackend(const SessionBackend&) = delete;
  SessionBackend& operator=(const SessionBackend&) = delete;
  virtual ~SessionBackend() = default;

  // Throws invalid_argument unless `slot` can run on its own.
  virtual void check_slot(std::uint32_t /*slot*/) const {}
  virtual const Wme* make(std::uint32_t slot, std::string_view wme_literal) = 0;
  virtual const Wme* make(
      std::uint32_t slot, SymbolId cls,
      const std::vector<std::pair<SymbolId, Value>>& fields) = 0;
  virtual void remove(std::uint32_t slot, TimeTag tag) = 0;
  // The slot's WM, trace and stats; read between runs.
  virtual const Control& control(std::uint32_t slot) const = 0;
  virtual void set_max_cycles(std::uint32_t slot, std::uint64_t n) = 0;
  // Runs the slot to halt, an empty conflict set or its cycle cap.
  virtual RunResult run_session(std::uint32_t slot) = 0;
  // Checkpoint capture at a quiescent point.
  virtual EngineSnapshot snapshot_session(std::uint32_t slot) = 0;
  // Empties the slot, as if newly built.
  virtual void reset_session(std::uint32_t slot) = 0;
  // Replays `snap` into an empty slot (Control::restore).
  virtual void restore_session(std::uint32_t slot,
                               const EngineSnapshot& snap) = 0;
};

}  // namespace psme
