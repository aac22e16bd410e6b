// Multi-world state: many independent OPS5 sessions sharing one compiled
// program image (madrona-style; see docs/worlds.md).
//
// A World is the complete mutable state of one session: its working
// memory, conflict set, token hash tables, firing trace, and a token
// arena per scheduler endpoint. Everything read-only — the Rete network
// and the compiled RHS programs — lives once in the WorldPool and is
// shared by every world, so N sessions cost N× state, not N× program.
//
// Memory layout: world w's arenas are arenas[0..endpoints-1], where
// endpoint e is match worker e (the control thread is the last endpoint).
// A (world, worker) pair owns arena world.arenas[worker] exclusively, so
// allocation never synchronizes and every token/entry provably belongs to
// exactly one world (BumpArena::owns backs the isolation tests).
//
// Lifecycle: construct → load wmes → run (batched or solo) → snapshot /
// reset / restore. BatchEngine::reset_session() is madrona's WorldReset:
// the arenas are poisoned (stale cross-world pointers read 0x5a garbage,
// not plausible tokens) and the WM/conflict set/tables are rebuilt empty;
// restore_session() then replays an EngineSnapshot into the fresh world.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/control.hpp"
#include "match/kernel.hpp"
#include "match/memory.hpp"
#include "match/task.hpp"

namespace psme::world {

// One session's mutable state: its Control (engine/control.hpp: WM, trace,
// stats, stop bookkeeping) plus its match state. Not movable once
// initialized (the WorldContext holds interior pointers); WorldPool stores
// worlds behind unique_ptr.
struct World : Control {
  std::uint32_t id = 0;
  // Per-world RNG seed: splitmix-style mix of EngineOptions::seed and the
  // world id. The engine never consumes it — it is the deterministic
  // per-world variation source for benches and tests.
  std::uint64_t seed = 0;

  std::unique_ptr<ConflictSet> cs;
  std::unique_ptr<match::HashTokenTable> left_table;
  std::unique_ptr<match::HashTokenTable> right_table;
  std::vector<match::BumpArena> arenas;  // one per scheduler endpoint
  match::WorldContext ctx;               // views over the tables + cs

  // Inline-mode match queue (match_processes == 0; drain_fifo's flat
  // FIFO): per-world so concurrent run_session() calls on different
  // worlds never share state. `emit_buf` is the shard drain's scratch for
  // pricing and routing one task's emissions.
  std::vector<match::Task> inline_queue;
  std::vector<match::Task> emit_buf;

  // Per-cycle (cycle, wm_digest, cs_digest) log when digest capture is on.
  struct DigestRow {
    std::uint64_t cycle = 0;
    std::uint64_t wm = 0;
    std::uint64_t cs = 0;
    bool operator==(const DigestRow&) const = default;
  };
  std::vector<DigestRow> digests;

  // True while run_all() still has work for this world.
  bool live = false;
};

// Shared World lifecycle, usable without a WorldPool (the shard engines
// build per-session Worlds over their own shared image; see
// src/shard/shard.hpp). Checkpoints are the Control's own snapshot() and
// restore() (psme.checkpoint.v1 semantics).
void init_world(World& w, std::uint32_t id, const ops5::Program& program,
                const EngineOptions& options, int endpoints);
// Poisons the arenas and rebuilds the mutable state empty.
void reset_world_state(World& w, const ops5::Program& program,
                       const EngineOptions& options, int endpoints);

// Owns N worlds plus the single shared compiled image (ProgramImage: one
// Rete network, one compiled-RHS vector),
// built once however many worlds exist.
class WorldPool {
 public:
  // `endpoints` is match_processes + 1 (workers + control): each world
  // gets that many arenas so any endpoint can allocate in any world
  // without synchronizing.
  WorldPool(const ops5::Program& program, const EngineOptions& options,
            std::uint32_t num_worlds, int endpoints);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(worlds_.size());
  }
  World& world(std::uint32_t w) { return *worlds_.at(w); }
  const World& world(std::uint32_t w) const { return *worlds_.at(w); }

  const ProgramImage& image() const { return image_; }
  int endpoints() const { return endpoints_; }

  static std::uint64_t world_seed(std::uint64_t base, std::uint32_t id);

 private:
  const ProgramImage image_;
  int endpoints_;
  std::vector<std::unique_ptr<World>> worlds_;
};

}  // namespace psme::world
