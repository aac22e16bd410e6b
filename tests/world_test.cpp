// Multi-world batching (src/world/): pool construction, per-world
// isolation, option validation, run_world slicing, checkpoint round trips,
// and the serve layer's session->world-slot mapping.
#include "world/batch_engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "engine/engine.hpp"
#include "engine/sequential_engine.hpp"
#include "rr/recorder.hpp"
#include "serve/server.hpp"
#include "workloads/workloads.hpp"

namespace psme::world {
namespace {

// One firing per cycle forever; the counter value is the world's whole
// observable state, so cross-world leakage is immediately visible.
constexpr const char* kTicker = R"(
(literalize c n)
(p tick (c ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";

constexpr const char* kHalter = R"(
(literalize a x)
(p p1 (a ^x 1) --> (halt))
)";

EngineOptions inline_opts(std::uint32_t worlds) {
  EngineOptions opt;
  opt.worlds = worlds;
  opt.match_processes = 0;
  return opt;
}

TEST(WorldPool, PerWorldSeedsAreDistinctAndDeterministic) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t id = 0; id < 256; ++id) {
    const std::uint64_t s = WorldPool::world_seed(7, id);
    EXPECT_EQ(s, WorldPool::world_seed(7, id));
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 256u);                    // no collisions
  EXPECT_NE(WorldPool::world_seed(7, 0), WorldPool::world_seed(8, 0));
}

TEST(WorldPool, WorldsShareOneNetworkButOwnTheirState) {
  const auto program = ops5::Program::from_source(kTicker);
  BatchEngine batch(program, inline_opts(3));
  EXPECT_EQ(batch.num_worlds(), 3u);
  // One compiled image...
  EXPECT_EQ(&batch.world(0).ctx, &batch.world(0).ctx);
  EXPECT_NE(batch.world(0).wm.get(), batch.world(1).wm.get());
  EXPECT_NE(batch.world(0).left_table.get(), batch.world(1).left_table.get());
  // ...and disjoint mutable state: an edit in world 0 is invisible to 1.
  batch.make(0, "(c ^n 5)");
  EXPECT_EQ(batch.world(0).wm->size(), 1u);
  EXPECT_EQ(batch.world(1).wm->size(), 0u);
}

TEST(BatchEngine, RejectsNonsenseOptions) {
  const auto program = ops5::Program::from_source(kTicker);
  EXPECT_THROW(BatchEngine(program, EngineOptions{}),  // worlds == 0
               std::invalid_argument);
  {
    EngineOptions opt = inline_opts(2);
    opt.memory = match::MemoryStrategy::List;  // vs1 is single-world only
    EXPECT_THROW(BatchEngine(program, opt), std::invalid_argument);
  }
  {
    rr::Recorder rec;
    EngineOptions opt = inline_opts(2);
    opt.rr_record = &rec;
    EXPECT_THROW(BatchEngine(program, opt), std::invalid_argument);
  }
  {
    EngineOptions opt = inline_opts(2);
    opt.match_processes = 2;  // threaded pool cannot quiesce one world
    BatchEngine batch(program, opt);
    EXPECT_THROW(batch.run_session(0), std::logic_error);
  }
}

TEST(BatchEngine, EngineFacadeRejectsWorldsOptions) {
  const auto program = ops5::Program::from_source(kTicker);
  {
    EngineConfig cfg;
    cfg.options.worlds = 2;  // batching needs BatchEngine, not the facade
    EXPECT_THROW(Engine(program, cfg), std::invalid_argument);
  }
  {
    EngineConfig cfg;
    cfg.mode = ExecutionMode::LispStyle;
    cfg.options.worlds = 1;  // no shared match kernel to batch on
    EXPECT_THROW(Engine(program, cfg), std::invalid_argument);
  }
}

TEST(BatchEngine, WorldsRunIsolatedWithTheirOwnCaps) {
  const auto program = ops5::Program::from_source(kTicker);
  BatchEngine batch(program, inline_opts(4));
  for (std::uint32_t w = 0; w < 4; ++w) {
    batch.make(w, "(c ^n " + std::to_string(100 * w) + ")");
    batch.set_max_cycles(w, 5 + w);
  }
  batch.run_all();
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(batch.control(w).result().reason, StopReason::MaxCycles);
    EXPECT_EQ(batch.world(w).stats.cycles, 5 + w);
    // The counter ticked exactly `cycles` times from its own start value.
    const auto wmes = batch.world(w).wm->snapshot();
    ASSERT_EQ(wmes.size(), 1u);
    EXPECT_EQ(wmes[0]->fields[0].as_int(),
              static_cast<std::int64_t>(100 * w + 5 + w));
  }
}

TEST(BatchEngine, HaltStopsOnlyTheHaltingWorld) {
  const auto program = ops5::Program::from_source(kHalter);
  BatchEngine batch(program, inline_opts(2));
  batch.make(0, "(a ^x 1)");  // fires p1 -> halt
  batch.make(1, "(a ^x 2)");  // never matches
  batch.run_all();
  EXPECT_EQ(batch.control(0).result().reason, StopReason::Halt);
  EXPECT_EQ(batch.world(0).stats.cycles, 1u);
  EXPECT_EQ(batch.control(1).result().reason, StopReason::EmptyConflictSet);
  EXPECT_EQ(batch.world(1).stats.cycles, 0u);
}

TEST(BatchEngine, RunWorldSlicesMatchOneSequentialRun) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);

  EngineOptions ref_opt;
  ref_opt.max_cycles = 20;
  SequentialEngine ref(program, ref_opt);
  workloads::load(ref, wl);
  ref.run();

  BatchEngine batch(program, inline_opts(2));
  for (const std::string& w : wl.initial_wmes) batch.make(1, w);
  // Drive world 1 in uneven slices, like the serve layer's cmd_run.
  for (const std::uint64_t cap : {3u, 4u, 11u, 20u}) {
    batch.set_max_cycles(1, cap);
    batch.run_session(1);
  }
  EXPECT_EQ(batch.world(1).trace, ref.trace());
  EXPECT_EQ(batch.world(0).stats.cycles, 0u);  // untouched neighbor
}

TEST(BatchEngine, CheckpointRestoreIntoAnotherSlotResumesIdentically) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);

  BatchEngine batch(program, inline_opts(3));
  for (const std::string& w : wl.initial_wmes) batch.make(0, w);
  batch.set_max_cycles(0, 4);
  batch.run_session(0);
  const EngineSnapshot snap = batch.snapshot_session(0);

  // The uninterrupted continuation is the reference.
  batch.set_max_cycles(0, 20);
  batch.run_session(0);

  // Restore the cycle-4 state into a DIFFERENT slot and continue there.
  batch.reset_session(2);
  batch.restore_session(2, snap);
  batch.set_max_cycles(2, 20);
  batch.run_session(2);
  EXPECT_EQ(batch.world(2).trace, batch.world(0).trace);
  EXPECT_EQ(batch.world(2).stats.cycles, batch.world(0).stats.cycles);
  EXPECT_GT(batch.world(2).stats.cycles, 4u);  // it did advance past cycle 4

  // A non-fresh slot refuses a restore.
  EXPECT_THROW(batch.restore_session(0, snap), std::logic_error);
}

// Walks both hash tables of a world and checks every resident entry and
// token against the arenas: each world's match state must live entirely in
// its own arenas and in no other world's.
void expect_arena_isolation(BatchEngine& batch) {
  const std::uint32_t n = batch.num_worlds();
  auto owned_by = [&](std::uint32_t w, const void* p) {
    for (const match::BumpArena& a : batch.world(w).arenas)
      if (a.owns(p)) return true;
    return false;
  };
  for (std::uint32_t w = 0; w < n; ++w) {
    for (match::HashTokenTable* table :
         {batch.world(w).left_table.get(), batch.world(w).right_table.get()}) {
      for (std::uint32_t b = 0; b < table->size(); ++b) {
        match::Bucket& bucket = table->bucket_at(b);
        for (match::Entry* e = match::bucket_first(bucket); e;
             e = match::bucket_next(bucket, e)) {
          if (!e->live) continue;
          for (std::uint32_t other = 0; other < n; ++other) {
            const bool expect_own = other == w;
            if (e != &bucket.fast)  // fast slot lives inside the table
              EXPECT_EQ(owned_by(other, e), expect_own)
                  << "entry of world " << w << " vs arenas of " << other;
            if (e->token)
              EXPECT_EQ(owned_by(other, e->token), expect_own)
                  << "token of world " << w << " vs arenas of " << other;
          }
        }
      }
    }
  }
}

TEST(BatchEngine, ArenaOwnershipProvesWorldIsolation) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);
  EngineOptions opt = inline_opts(3);
  opt.hash_buckets = 32;
  BatchEngine batch(program, opt);
  for (std::uint32_t w = 0; w < 3; ++w) {
    for (const std::string& lit : wl.initial_wmes) batch.make(w, lit);
    batch.set_max_cycles(w, 5 + 3 * w);
  }
  batch.run_all();
  expect_arena_isolation(batch);

  // Reset poisons world 1's arenas; worlds 0 and 2 must be untouched.
  const std::uint64_t before0 = batch.world(0).stats.cycles;
  batch.reset_session(1);
  EXPECT_EQ(batch.world(1).wm->size(), 0u);
  EXPECT_EQ(batch.world(0).stats.cycles, before0);
  expect_arena_isolation(batch);
}

TEST(BatchServe, SessionsMapToWorldSlotsOfOneEngine) {
  const auto program = ops5::Program::from_source(kTicker);
  serve::Server server({.workers = 4, .queue_capacity = 256});
  const std::vector<serve::SessionId> ids =
      server.open_batch_sessions(program, {}, 3);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(server.session_count(), 3u);

  // Per-slot state: each session's counter advances independently.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::Response r =
        server.call(ids[i], "make (c ^n " + std::to_string(10 * i) + ")");
    ASSERT_TRUE(r.ok) << r.text;
  }
  EXPECT_TRUE(server.call(ids[0], "run 4").ok);
  EXPECT_TRUE(server.call(ids[1], "run 7").ok);
  EXPECT_EQ(server.call(ids[0], "stats").text, "cycles=4 firings=4 wm=1");
  EXPECT_EQ(server.call(ids[1], "stats").text, "cycles=7 firings=7 wm=1");
  EXPECT_EQ(server.call(ids[2], "stats").text, "cycles=0 firings=0 wm=1");

  // Checkpoint/restore round trip against a world slot over the protocol.
  const serve::Response ckpt = server.call(ids[1], "checkpoint");
  ASSERT_TRUE(ckpt.ok) << ckpt.text;
  EXPECT_TRUE(server.call(ids[1], "run 5").ok);
  const serve::Response restored =
      server.call(ids[1], "restore " + ckpt.text);
  ASSERT_TRUE(restored.ok) << restored.text;
  EXPECT_EQ(restored.text, "7");
  EXPECT_EQ(server.call(ids[1], "stats").text, "cycles=7 firings=7 wm=1");

  // Closing one slot's session leaves its neighbors running.
  EXPECT_TRUE(server.close_session(ids[0]));
  EXPECT_TRUE(server.call(ids[2], "run 2").ok);
  EXPECT_EQ(server.call(ids[2], "stats").text, "cycles=2 firings=2 wm=1");
}

TEST(BatchServe, WorldBackedSessionsRequireInlineMatch) {
  const auto program = ops5::Program::from_source(kTicker);
  EngineOptions opt = inline_opts(1);
  opt.match_processes = 2;
  BatchEngine batch(program, opt);
  EXPECT_THROW(serve::Session(program, &batch, 0), std::invalid_argument);
}

}  // namespace
}  // namespace psme::world
