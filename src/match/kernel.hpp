// The semantic core of the matcher, shared by every engine.
//
// These functions implement exactly one node activation each, with explicit
// locking preconditions instead of internal locks, so the drivers — the
// sequential token loops and the executor (match/worker_pool.hpp), which
// real threads and the Multimax simulator's virtual CPUs both run —
// execute the *same* match semantics and can only differ in scheduling.
//
// State is split along the world axis (src/world/):
//  - MatchContext is per-WORKER: the memory strategy, the worker's token
//    arena and its stats accumulator.
//  - WorldContext is per-WORLD: the token memories (hash tables or list
//    buckets) and the conflict set. Single-world engines own exactly one;
//    the BatchEngine resolves one per task from Task::world.
//
// Locking contract (hash backend, parallel drivers):
//  - HashTokenTable::line_of(task_hash(task)) is the line a Join task will
//    touch within its world; the driver must hold that line before calling
//    process_join (simple scheme), or hold the line in side mode + the
//    modification lock around the memory-update phase (MRSW scheme, via
//    process_join_update / process_join_probe).
//    Batched drivers must fold Task::world into the lock index — tasks
//    from different worlds never share memory, but may share a lock
//    (false sharing is allowed; false non-sharing is not).
//  - Root and Terminal tasks touch no line.
//  - The executor's match processes never touch the conflict set; the
//    control applies Terminal tasks at quiescence (WorkerPool).
//
// Sequential drivers call the same entry points with no locks held.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "match/memory.hpp"
#include "match/task.hpp"
#include "ops5/program.hpp"
#include "rete/network.hpp"
#include "runtime/conflict_set.hpp"

namespace psme::match {

enum class MemoryStrategy : std::uint8_t { List, Hash };  // vs1 / vs2

// The mutable match state of one world: token memories + conflict set.
// Everything a node activation writes lives here; the compiled network is
// shared read-only across all worlds.
struct WorldContext {
  // Hash backend.
  HashTokenTable* left_table = nullptr;
  HashTokenTable* right_table = nullptr;
  // List backend.
  ListMemories* list_mems = nullptr;
  // Conflict set (internally thread-safe).
  ConflictSet* conflict_set = nullptr;
};

// Per-worker execution state: one per worker for stats/arena.
struct MatchContext {
  MemoryStrategy strategy = MemoryStrategy::Hash;
  BumpArena* arena = nullptr;
  MatchStats* stats = nullptr;
};

// Cost facts of one activation, fed to the simulator's cost model.
struct ActivationCost {
  std::uint32_t alpha_tests = 0;   // alpha tests a root task evaluated
  std::uint32_t same_examined = 0;
  std::uint32_t opp_examined = 0;
  std::uint32_t emissions = 0;     // join pairs; a root's emitted tasks
  std::uint32_t key_slots = 0;     // compiled key slots read by the hash
  std::uint32_t emitted_wmes = 0;  // total flat-token wmes copied on emits
  bool hash_computed = false;
};

// (node, equality-key) hash for a Join task, read through the join's
// compiled key layout; defines its hash-table line. World-independent:
// the same task hashes identically in every world (rr fingerprints and
// the committed layout fixtures depend on this).
std::uint64_t task_hash(const Task& task);

// --- Full activations (line held exclusively, or sequential) -------------

// Root task: run the alpha programs for the wme's class; schedules join /
// terminal activations into `out`.
void process_root(MatchContext& ctx, WorldContext& world,
                  const rete::Network& net, const Task& task,
                  std::vector<Task>& out, ActivationCost* cost = nullptr);

// Join (positive or negative) activation, both phases under one lock.
void process_join(MatchContext& ctx, WorldContext& world, const Task& task,
                  std::vector<Task>& out, ActivationCost* cost = nullptr,
                  const std::uint64_t* hash_hint = nullptr);

// Terminal activation (conflict set has its own internal lock).
void process_terminal(MatchContext& ctx, WorldContext& world, const Task& task,
                      ActivationCost* cost = nullptr);

// --- Split activation for the MRSW locking scheme -------------------------

// Phase 1 — memory update; caller holds the line in side mode AND the
// modification lock.
struct MemUpdate {
  enum class Outcome : std::uint8_t {
    Inserted,      // + token added to memory
    Annihilated,   // + met a parked -, both discarded (no probe needed)
    Removed,       // - token found and unlinked (probe for - emissions)
    ParkedDelete,  // - parked on the extra-deletes list (no probe)
  };
  Outcome outcome = Outcome::Inserted;
  Entry* entry = nullptr;  // inserted or removed entry
  std::uint64_t hash = 0;
};
// `hash_hint`, when non-null, is the task's task_hash() value the driver
// already computed to find the line — passed through so the update phase
// does not hash the key a second time.
MemUpdate process_join_update(MatchContext& ctx, WorldContext& world,
                              const Task& task, ActivationCost* cost = nullptr,
                              const std::uint64_t* hash_hint = nullptr);

// Phase 2 — probe the opposite memory and emit; caller holds the line in
// side mode (modification lock NOT required: the opposite chain cannot
// change while this side holds the line, and own-chain mutations are done).
void process_join_probe(MatchContext& ctx, WorldContext& world,
                        const Task& task, const MemUpdate& update,
                        std::vector<Task>& out,
                        ActivationCost* cost = nullptr);

// Dispatches a non-root task with both phases under the caller's lock.
inline void process_task(MatchContext& ctx, WorldContext& world,
                         const rete::Network& net, const Task& task,
                         std::vector<Task>& out,
                         ActivationCost* cost = nullptr) {
  switch (task.kind) {
    case TaskKind::Root: process_root(ctx, world, net, task, out, cost); break;
    case TaskKind::JoinLeft:
    case TaskKind::JoinRight: process_join(ctx, world, task, out, cost); break;
    case TaskKind::Terminal: process_terminal(ctx, world, task, cost); break;
  }
}

// Runs `queue` to fixpoint on the calling thread, FIFO: a flat vector
// walked with a head index, each task's emissions appended straight onto
// its tail. The task is copied out first (an append may reallocate); the
// vector is cleared at fixpoint, keeping its capacity for the next drain.
// The inline match phase of the sequential engine and of an inline world.
inline void drain_fifo(MatchContext& ctx, WorldContext& world,
                       const rete::Network& net, std::vector<Task>& queue) {
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Task task = queue[head];
    process_task(ctx, world, net, task, queue);
    ctx.stats->tasks_executed += 1;
  }
  queue.clear();
}

}  // namespace psme::match
