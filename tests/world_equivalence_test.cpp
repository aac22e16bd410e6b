// Cross-engine equivalence for the multi-world BatchEngine: a 64-world
// batch (inline and threaded) must be indistinguishable, world by world,
// from 64 independent SequentialEngine runs — identical firing traces AND
// identical per-cycle rr digests at every quiescent point. A divergence
// names the first (world, cycle) pair. Also: convergence when a worker
// dies mid-batch, and checkpoint rewinds that touch only the restored
// worlds (arena-ownership leak check).
#include <gtest/gtest.h>

#include "engine/sequential_engine.hpp"
#include "rr/digest.hpp"
#include "rr/fault.hpp"
#include "workloads/workloads.hpp"
#include "world/batch_engine.hpp"

namespace psme::world {
namespace {

constexpr std::uint32_t kWorlds = 64;
constexpr std::uint64_t kCycles = 15;

// Per-world working-memory variation: world w loads the shared rubik
// deck minus one card, picked by its deterministic seed. Worlds therefore
// run genuinely different (but reproducible) trajectories on one program.
std::vector<std::string> world_wmes(const workloads::Workload& wl,
                                    std::uint64_t seed) {
  const std::size_t drop = seed % wl.initial_wmes.size();
  std::vector<std::string> wmes;
  wmes.reserve(wl.initial_wmes.size() - 1);
  for (std::size_t i = 0; i < wl.initial_wmes.size(); ++i)
    if (i != drop) wmes.push_back(wl.initial_wmes[i]);
  return wmes;
}

struct WorldRef {
  std::vector<FiringRecord> trace;
  std::vector<World::DigestRow> digests;
};

// The single-world reference: a SequentialEngine driven one cycle per
// slice so its digests land at the same quiescent points the batch
// captures (cycle 0 after the initial load, then one row per cycle).
WorldRef sequential_ref(const ops5::Program& program,
                        const std::vector<std::string>& wmes) {
  SequentialEngine eng(program, EngineOptions{});
  for (const std::string& lit : wmes) eng.make(lit);
  // Match the initial wmes without firing: row 0 is the post-load,
  // pre-first-firing quiescent point, like the batch's round 0.
  eng.set_max_cycles(0);
  eng.run();
  WorldRef ref;
  ref.digests.push_back(
      {0, rr::wm_digest(eng.wm()), rr::cs_digest(eng.conflict_set())});
  for (std::uint64_t c = 1; c <= kCycles; ++c) {
    eng.set_max_cycles(c);
    eng.run();
    if (eng.stats().cycles < c) break;  // halted / empty conflict set
    ref.digests.push_back(
        {c, rr::wm_digest(eng.wm()), rr::cs_digest(eng.conflict_set())});
  }
  ref.trace = eng.trace();
  return ref;
}

std::vector<WorldRef> all_refs(const ops5::Program& program,
                               const workloads::Workload& wl,
                               const BatchEngine& batch) {
  std::vector<WorldRef> refs;
  refs.reserve(batch.num_worlds());
  for (std::uint32_t w = 0; w < batch.num_worlds(); ++w)
    refs.push_back(
        sequential_ref(program, world_wmes(wl, batch.world(w).seed)));
  return refs;
}

void load_batch(BatchEngine& batch, const workloads::Workload& wl) {
  for (std::uint32_t w = 0; w < batch.num_worlds(); ++w) {
    for (const std::string& lit : world_wmes(wl, batch.world(w).seed))
      batch.make(w, lit);
    batch.set_max_cycles(w, kCycles);
  }
}

// Compares every world against its reference and names the FIRST
// divergent (world, cycle) so a batching bug is immediately localizable.
void expect_worlds_match(BatchEngine& batch,
                         const std::vector<WorldRef>& refs,
                         const char* label) {
  for (std::uint32_t w = 0; w < batch.num_worlds(); ++w) {
    const World& world = batch.world(w);
    const WorldRef& ref = refs[w];
    const std::size_t rows =
        std::min(world.digests.size(), ref.digests.size());
    for (std::size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(world.digests[i], ref.digests[i])
          << label << ": world " << w << " first diverges at cycle "
          << ref.digests[i].cycle << " (wm "
          << (world.digests[i].wm == ref.digests[i].wm ? "equal"
                                                       : "DIFFERS")
          << ", cs "
          << (world.digests[i].cs == ref.digests[i].cs ? "equal"
                                                       : "DIFFERS")
          << ")";
    }
    ASSERT_EQ(world.digests.size(), ref.digests.size())
        << label << ": world " << w << " digest row count";
    ASSERT_EQ(world.trace, ref.trace) << label << ": world " << w
                                      << " firing trace";
  }
}

TEST(WorldEquivalence, Batch64WorldsEqualsSixtyFourSequentialRuns) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);

  EngineOptions opt;
  opt.worlds = kWorlds;
  opt.hash_buckets = 64;
  BatchEngine inline_batch(program, opt);
  inline_batch.set_digest_capture(true);
  load_batch(inline_batch, wl);
  const std::vector<WorldRef> refs = all_refs(program, wl, inline_batch);
  inline_batch.run_all();
  expect_worlds_match(inline_batch, refs, "inline");

  // The threaded pool interleaves every world's tasks over shared workers
  // and a shared lock array; per-world results must not change.
  for (const auto scheme :
       {match::LockScheme::Simple, match::LockScheme::Mrsw}) {
    EngineOptions topt = opt;
    topt.match_processes = 3;
    topt.task_queues = 2;
    topt.lock_scheme = scheme;
    BatchEngine threaded(program, topt);
    threaded.set_digest_capture(true);
    load_batch(threaded, wl);
    threaded.run_all();
    expect_worlds_match(threaded, refs,
                        scheme == match::LockScheme::Simple ? "threaded/simple"
                                                            : "threaded/mrsw");
  }
}

TEST(WorldEquivalence, RunWorldConcurrencyIsSafePerSlot) {
  // Inline worlds are disjoint state: hammering different slots from
  // different threads (the Server's worker pool shape) must be race-free.
  // TSan is the real assertion here.
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);
  EngineOptions opt;
  opt.worlds = 8;
  opt.hash_buckets = 64;
  BatchEngine batch(program, opt);
  load_batch(batch, wl);
  std::vector<std::thread> drivers;
  for (std::uint32_t w = 0; w < 8; ++w)
    drivers.emplace_back([&batch, w] { batch.run_session(w); });
  for (std::thread& t : drivers) t.join();
  const std::vector<WorldRef> refs = all_refs(program, wl, batch);
  for (std::uint32_t w = 0; w < 8; ++w)
    EXPECT_EQ(batch.world(w).trace, refs[w].trace) << "world " << w;
}

TEST(WorldEquivalence, WorkerDeathMidBatchStillConverges) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);

  rr::FaultPlan plan;
  plan.ops.push_back({rr::FaultKind::WorkerDeath, /*endpoint=*/1,
                      /*at_cycle=*/2, /*count=*/1, /*magnitude=*/0});
  rr::FaultInjector faults(plan);

  EngineOptions opt;
  opt.worlds = 16;
  opt.hash_buckets = 64;
  opt.match_processes = 3;
  opt.rr_faults = &faults;
  BatchEngine batch(program, opt);
  batch.set_digest_capture(true);
  load_batch(batch, wl);
  const std::vector<WorldRef> refs = [&] {
    std::vector<WorldRef> r;
    for (std::uint32_t w = 0; w < 16; ++w)
      r.push_back(sequential_ref(program, world_wmes(wl, batch.world(w).seed)));
    return r;
  }();
  batch.run_all();
  for (std::uint32_t w = 0; w < 16; ++w) {
    ASSERT_EQ(batch.world(w).trace, refs[w].trace)
        << "world " << w << " diverged after mid-batch worker death";
  }
}

TEST(WorldEquivalence, DelayedLockReleaseStillMatchesSequential) {
  // Workers dawdle while holding hash-line locks: a benign perturbation
  // that must be injected (the batch runs the shared worker pool, which
  // honours DelayLockRelease) and must not change any world's result.
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);
  for (const auto scheme :
       {match::LockScheme::Simple, match::LockScheme::Mrsw}) {
    rr::FaultPlan plan;
    for (unsigned ep = 0; ep < 3; ++ep)
      plan.ops.push_back({rr::FaultKind::DelayLockRelease, ep,
                          /*at_cycle=*/1, /*count=*/16, /*magnitude=*/20});
    rr::FaultInjector faults(plan);

    EngineOptions opt;
    opt.worlds = 8;
    opt.hash_buckets = 64;
    opt.match_processes = 3;
    opt.task_queues = 2;
    opt.lock_scheme = scheme;
    opt.rr_faults = &faults;
    BatchEngine batch(program, opt);
    batch.set_digest_capture(true);
    load_batch(batch, wl);
    const std::vector<WorldRef> refs = all_refs(program, wl, batch);
    batch.run_all();
    expect_worlds_match(batch, refs, "delayed lock release");
    EXPECT_GT(faults.injected(), 0u)
        << "lock scheme " << static_cast<int>(scheme);
  }
}

TEST(WorldEquivalence, RestoreRewindsOnlyTheRestoredWorlds) {
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);

  // A worker dies mid-run; afterwards two worlds are rewound to their
  // mid-run checkpoints. Every OTHER world must keep its end-of-run state
  // bit for bit, and no world's match memory may reference another's
  // arenas after the rewind.
  rr::FaultPlan plan;
  plan.ops.push_back({rr::FaultKind::WorkerDeath, /*endpoint=*/0,
                      /*at_cycle=*/3, /*count=*/1, /*magnitude=*/0});
  rr::FaultInjector faults(plan);

  EngineOptions opt;
  opt.worlds = 8;
  opt.hash_buckets = 64;
  opt.match_processes = 2;
  opt.rr_faults = &faults;
  BatchEngine batch(program, opt);
  load_batch(batch, wl);
  for (std::uint32_t w = 0; w < 8; ++w) batch.set_max_cycles(w, 6);
  batch.run_all();

  std::vector<EngineSnapshot> at6;
  std::vector<std::vector<FiringRecord>> trace6;
  for (std::uint32_t w = 0; w < 8; ++w) {
    at6.push_back(batch.snapshot_session(w));
    trace6.push_back(batch.world(w).trace);
  }
  for (std::uint32_t w = 0; w < 8; ++w) batch.set_max_cycles(w, 12);
  batch.run_all();
  std::vector<std::uint64_t> wm12, cycles12;
  std::vector<std::vector<FiringRecord>> trace12;
  for (std::uint32_t w = 0; w < 8; ++w) {
    wm12.push_back(rr::wm_digest(*batch.world(w).wm));
    cycles12.push_back(batch.world(w).stats.cycles);
    trace12.push_back(batch.world(w).trace);
  }

  // Rewind worlds 2 and 5 to cycle 6; everyone else stays at 12.
  for (const std::uint32_t w : {2u, 5u}) {
    batch.reset_session(w);
    batch.restore_session(w, at6[w]);
  }
  for (const std::uint32_t w : {2u, 5u}) {
    EXPECT_EQ(batch.world(w).stats.cycles, at6[w].cycles);
    EXPECT_EQ(batch.world(w).trace, trace6[w]);
  }
  for (const std::uint32_t w : {0u, 1u, 3u, 4u, 6u, 7u}) {
    EXPECT_EQ(rr::wm_digest(*batch.world(w).wm), wm12[w])
        << "world " << w << " mutated by a neighbor's restore";
    EXPECT_EQ(batch.world(w).stats.cycles, cycles12[w]);
  }

  // Re-running drives only the rewound worlds forward (the rest are at
  // their cycle cap) and reconverges them to the uninterrupted result.
  batch.run_all();
  for (const std::uint32_t w : {2u, 5u})
    EXPECT_EQ(batch.world(w).trace, trace12[w])
        << "world " << w << " did not reconverge after rewind";

  // No cross-world references survive the rewind: every resident token
  // belongs to its own world's arenas.
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (match::HashTokenTable* table :
         {batch.world(w).left_table.get(), batch.world(w).right_table.get()}) {
      for (std::uint32_t b = 0; b < table->size(); ++b) {
        match::Bucket& bucket = table->bucket_at(b);
        for (match::Entry* e = match::bucket_first(bucket); e;
             e = match::bucket_next(bucket, e)) {
          if (!e->live || !e->token) continue;
          bool owned = false, foreign = false;
          for (std::uint32_t other = 0; other < 8; ++other) {
            for (const match::BumpArena& a : batch.world(other).arenas) {
              if (!a.owns(e->token)) continue;
              (other == w ? owned : foreign) = true;
            }
          }
          EXPECT_TRUE(owned) << "world " << w << " token outside its arenas";
          EXPECT_FALSE(foreign)
              << "world " << w << " token aliases another world's arena";
        }
      }
    }
  }
}

}  // namespace
}  // namespace psme::world
