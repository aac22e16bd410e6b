// Cross-engine equivalence: every engine must produce the identical firing
// trace for the same program and initial working memory. Conflict
// resolution is deterministic, so equal conflict sets at every quiescent
// point imply equal traces — this is the end-to-end guarantee the parallel
// matcher (out-of-order tokens, conjugate pairs, MRSW requeues) has to
// uphold.
#include <gtest/gtest.h>

#include "common/symbol_table.hpp"
#include "engine/engine.hpp"
#include "rr/digest.hpp"
#include "workloads/workloads.hpp"
#include "world/batch_engine.hpp"

namespace psme {
namespace {

struct TraceResult {
  std::vector<FiringRecord> trace;
  StopReason reason;
};

TraceResult run_config(const ops5::Program& program,
                       const workloads::Workload& w, EngineConfig cfg) {
  cfg.options.max_cycles = 150;
  Engine eng(program, cfg);
  workloads::load(eng, w);
  const RunResult r = eng.run();
  return {eng.trace(), r.reason};
}

class RandomEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEquivalence, AllEnginesProduceIdenticalTraces) {
  const auto w = workloads::random_program(GetParam());
  const auto program = ops5::Program::from_source(w.source);

  EngineConfig ref_cfg;
  ref_cfg.mode = ExecutionMode::Sequential;  // vs2 reference
  const TraceResult ref = run_config(program, w, ref_cfg);

  {
    EngineConfig cfg;
    cfg.mode = ExecutionMode::Sequential;
    cfg.options.memory = match::MemoryStrategy::List;  // vs1
    const TraceResult got = run_config(program, w, cfg);
    EXPECT_EQ(got.trace, ref.trace)
        << "vs1 diverged, seed " << GetParam() << "\n"
        << rr::trace_divergence(ref.trace, got.trace, program);
    EXPECT_EQ(got.reason, ref.reason);
  }
  {
    EngineConfig cfg;
    cfg.mode = ExecutionMode::LispStyle;
    const TraceResult got = run_config(program, w, cfg);
    EXPECT_EQ(got.trace, ref.trace)
        << "lisp diverged, seed " << GetParam() << "\n"
        << rr::trace_divergence(ref.trace, got.trace, program);
  }
  for (const int procs : {1, 3}) {
    for (const int queues : {1, 4}) {
      for (const auto scheme :
           {match::LockScheme::Simple, match::LockScheme::Mrsw}) {
        EngineConfig cfg;
        cfg.mode = ExecutionMode::ParallelThreads;
        cfg.options.match_processes = procs;
        cfg.options.task_queues = queues;
        cfg.options.lock_scheme = scheme;
        const TraceResult got = run_config(program, w, cfg);
        EXPECT_EQ(got.trace, ref.trace)
            << "threads diverged, seed " << GetParam() << " procs=" << procs
            << " queues=" << queues << " scheme=" << static_cast<int>(scheme)
            << "\n" << rr::trace_divergence(ref.trace, got.trace, program);
      }
    }
  }
  for (const int procs : {1, 5, 13}) {
    EngineConfig cfg;
    cfg.mode = ExecutionMode::SimulatedMultimax;
    cfg.options.match_processes = procs;
    cfg.options.task_queues = procs > 1 ? 4 : 1;
    cfg.options.lock_scheme =
        procs == 5 ? match::LockScheme::Mrsw : match::LockScheme::Simple;
    const TraceResult got = run_config(program, w, cfg);
    EXPECT_EQ(got.trace, ref.trace)
        << "simulator diverged, seed " << GetParam() << " procs=" << procs
        << "\n" << rr::trace_divergence(ref.trace, got.trace, program);
  }
  // Work-stealing discipline, threaded and simulated.
  for (const int procs : {1, 3}) {
    for (const auto scheme :
         {match::LockScheme::Simple, match::LockScheme::Mrsw}) {
      EngineConfig cfg;
      cfg.mode = ExecutionMode::ParallelThreads;
      cfg.options.match_processes = procs;
      cfg.options.scheduler = match::SchedulerKind::Steal;
      cfg.options.lock_scheme = scheme;
      const TraceResult got = run_config(program, w, cfg);
      EXPECT_EQ(got.trace, ref.trace)
          << "threads(steal) diverged, seed " << GetParam()
          << " procs=" << procs << " scheme=" << static_cast<int>(scheme)
          << "\n" << rr::trace_divergence(ref.trace, got.trace, program);
    }
  }
  for (const int procs : {1, 5}) {
    EngineConfig cfg;
    cfg.mode = ExecutionMode::SimulatedMultimax;
    cfg.options.match_processes = procs;
    cfg.options.scheduler = match::SchedulerKind::Steal;
    cfg.options.lock_scheme =
        procs == 5 ? match::LockScheme::Mrsw : match::LockScheme::Simple;
    const TraceResult got = run_config(program, w, cfg);
    EXPECT_EQ(got.trace, ref.trace)
        << "simulator(steal) diverged, seed " << GetParam()
        << " procs=" << procs << "\n"
        << rr::trace_divergence(ref.trace, got.trace, program);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

// The three paper workloads at reduced scale, across engines.
class WorkloadEquivalence
    : public ::testing::TestWithParam<const char*> {
 protected:
  static workloads::Workload make_workload(const std::string& name) {
    if (name == "weaver") return workloads::weaver(6, 2);
    if (name == "rubik") return workloads::rubik(6);
    if (name == "tourney") return workloads::tourney(8, false);
    return workloads::tourney(8, true);
  }
};

TEST_P(WorkloadEquivalence, EnginesAgree) {
  const auto w = make_workload(GetParam());
  const auto program = ops5::Program::from_source(w.source);

  auto run_mode = [&](EngineConfig cfg) {
    cfg.options.max_cycles = 100000;
    Engine eng(program, cfg);
    workloads::load(eng, w);
    eng.run();
    return eng.trace();
  };

  EngineConfig seq;
  seq.mode = ExecutionMode::Sequential;
  const auto ref = run_mode(seq);
  ASSERT_FALSE(ref.empty());

  // On divergence, print the first differing firing (production + timetags)
  // instead of gtest's raw container dump.
  auto expect_same = [&](const std::vector<FiringRecord>& got,
                         const char* label) {
    EXPECT_EQ(got, ref) << label << " diverged\n"
                        << rr::trace_divergence(ref, got, program);
  };

  EngineConfig vs1;
  vs1.mode = ExecutionMode::Sequential;
  vs1.options.memory = match::MemoryStrategy::List;
  expect_same(run_mode(vs1), "vs1");

  EngineConfig lisp;
  lisp.mode = ExecutionMode::LispStyle;
  expect_same(run_mode(lisp), "lisp");

  EngineConfig par;
  par.mode = ExecutionMode::ParallelThreads;
  par.options.match_processes = 3;
  par.options.task_queues = 4;
  par.options.lock_scheme = match::LockScheme::Mrsw;
  expect_same(run_mode(par), "threads");

  EngineConfig simc;
  simc.mode = ExecutionMode::SimulatedMultimax;
  simc.options.match_processes = 7;
  simc.options.task_queues = 4;
  expect_same(run_mode(simc), "simulator");

  // The same workloads under the work-stealing scheduler: the acceptance
  // property is an identical firing trace across every discipline.
  EngineConfig par_steal;
  par_steal.mode = ExecutionMode::ParallelThreads;
  par_steal.options.match_processes = 3;
  par_steal.options.scheduler = match::SchedulerKind::Steal;
  par_steal.options.lock_scheme = match::LockScheme::Mrsw;
  expect_same(run_mode(par_steal), "threads(steal)");

  EngineConfig sim_steal;
  sim_steal.mode = ExecutionMode::SimulatedMultimax;
  sim_steal.options.match_processes = 7;
  sim_steal.options.scheduler = match::SchedulerKind::Steal;
  expect_same(run_mode(sim_steal), "simulator(steal)");

  // The multi-world engine, inline and threaded: every slot of the batch
  // must fire the single-engine trace (world_equivalence_test.cpp covers
  // per-cycle digests; here the workload sweep covers program diversity).
  for (const int procs : {0, 3}) {
    EngineOptions wopt;
    wopt.worlds = 4;
    wopt.match_processes = procs;
    wopt.max_cycles = 100000;
    world::BatchEngine batch(program, wopt);
    for (std::uint32_t slot = 0; slot < 4; ++slot)
      for (const std::string& lit : w.initial_wmes) batch.make(slot, lit);
    batch.run_all();
    for (std::uint32_t slot = 0; slot < 4; ++slot)
      expect_same(batch.world(slot).trace,
                  procs == 0 ? "batch(inline)" : "batch(threaded)");
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadEquivalence,
                         ::testing::Values("weaver", "rubik", "tourney",
                                           "tourney-fixed"));

}  // namespace
}  // namespace psme
