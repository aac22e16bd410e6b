// Fault injection (src/rr/fault.hpp + harness): benign fault plans —
// stalls, delayed lock releases, drop/requeues, failed pops, worker deaths
// — must leave the firing trace and every cycle digest identical to the
// sequential reference, across {central, steal} x {threads, sim}. The one
// non-benign kind (LoseTask) must be *caught*: the harness pins the first
// damaged cycle and the shrinker reduces a failing plan to the bad op.
#include <gtest/gtest.h>

#include "rr/fault.hpp"
#include "rr/harness.hpp"
#include "workloads/workloads.hpp"

namespace psme::rr {

// gtest's default printout of SingleFaultKind's parameter is a byte dump
// and a pointer, and that printout ends up in the ctest test names. (Found
// by argument-dependent lookup through FaultKind, so it lives here rather
// than in the unnamed namespace.)
void PrintTo(const std::tuple<FaultKind, const char*>& p, std::ostream* os) {
  *os << fault_kind_name(std::get<0>(p)) << "/" << std::get<1>(p);
}

namespace {

RunSpec small_spec(const std::string& mode, const std::string& sched) {
  RunSpec spec;
  spec.workload = workloads::tourney(8, false);
  spec.mode = mode;
  spec.scheduler = sched;
  spec.lock_scheme = "mrsw";
  spec.match_processes = 3;
  spec.task_queues = 2;
  spec.max_cycles = 60;
  return spec;
}

TEST(FaultPlan, RandomPlansAreReproducibleAndBenign) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan a = FaultPlan::random(seed, 3);
    const FaultPlan b = FaultPlan::random(seed, 3);
    EXPECT_EQ(a.ops, b.ops) << "seed " << seed;
    EXPECT_TRUE(a.benign()) << "seed " << seed;
    EXPECT_FALSE(a.empty()) << "seed " << seed;
    for (const FaultOp& op : a.ops) EXPECT_LT(op.endpoint, 3u);
  }
  // Single-worker plans never kill the only worker.
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    EXPECT_FALSE(
        FaultPlan::random(seed, 1).has_kind(FaultKind::WorkerDeath));
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan = FaultPlan::random(7, 3);
  plan.ops.push_back({FaultKind::LoseTask, 2, 5, 3, 0});
  FaultPlan back;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &back, &error)) << error;
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.ops, plan.ops);
}

struct FaultCase {
  std::uint64_t seed;
  const char* mode;
  const char* scheduler;
};

std::string fault_case_name(const ::testing::TestParamInfo<FaultCase>& info) {
  return std::string("seed") + std::to_string(info.param.seed) + "_" +
         info.param.mode + "_" + info.param.scheduler;
}

class BenignFaultMatrix : public ::testing::TestWithParam<FaultCase> {};

TEST_P(BenignFaultMatrix, EngineReconvergesToSequentialResult) {
  const FaultCase& c = GetParam();
  const RunSpec spec = small_spec(c.mode, c.scheduler);
  const FaultPlan plan = FaultPlan::random(c.seed, spec.match_processes);
  ASSERT_TRUE(plan.benign());
  const FaultRunResult r = run_with_faults(spec, plan);
  EXPECT_TRUE(r.reconverged)
      << "plan: " << plan.describe() << "\n" << r.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BenignFaultMatrix,
    ::testing::Values(FaultCase{1, "threads", "central"},
                      FaultCase{1, "threads", "steal"},
                      FaultCase{1, "sim", "central"},
                      FaultCase{1, "sim", "steal"},
                      FaultCase{2, "threads", "central"},
                      FaultCase{2, "threads", "steal"},
                      FaultCase{2, "sim", "central"},
                      FaultCase{2, "sim", "steal"},
                      FaultCase{3, "threads", "central"},
                      FaultCase{3, "sim", "steal"},
                      FaultCase{4, "threads", "steal"},
                      FaultCase{4, "sim", "central"},
                      FaultCase{5, "threads", "central"},
                      FaultCase{5, "sim", "steal"},
                      FaultCase{6, "threads", "steal"},
                      FaultCase{6, "sim", "central"}),
    fault_case_name);

// Every fault kind individually, on both engines.
class SingleFaultKind
    : public ::testing::TestWithParam<std::tuple<FaultKind, const char*>> {};

TEST_P(SingleFaultKind, BenignKindsReconverge) {
  const auto [kind, mode] = GetParam();
  RunSpec spec = small_spec(mode, "steal");
  FaultPlan plan;
  plan.ops.push_back({kind, 1, 2, 4, 150});
  const FaultRunResult r = run_with_faults(spec, plan);
  EXPECT_TRUE(r.reconverged)
      << fault_kind_name(kind) << " on " << mode << ":\n" << r.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SingleFaultKind,
    ::testing::Combine(::testing::Values(FaultKind::WorkerStall,
                                         FaultKind::DelayLockRelease,
                                         FaultKind::DropRequeue,
                                         FaultKind::StealFail),
                       ::testing::Values("threads", "sim")),
    [](const auto& info) {
      return std::string(fault_kind_name(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param);
    });

class WorkerDeathRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkerDeathRecovery, CheckpointRestartReconverges) {
  RunSpec spec = small_spec(GetParam(), "central");
  FaultPlan plan;
  plan.ops.push_back({FaultKind::WorkerDeath, 1, 3, 1, 0});
  const FaultRunResult r = run_with_faults(spec, plan, /*restart_at_cycle=*/8);
  EXPECT_TRUE(r.used_checkpoint_restart);
  EXPECT_TRUE(r.reconverged) << r.detail;
}

TEST_P(WorkerDeathRecovery, SurvivingWorkersAloneAlsoReconverge) {
  // Without a restart the remaining workers absorb the dead one's share;
  // the run is slower but must stay correct.
  RunSpec spec = small_spec(GetParam(), "steal");
  FaultPlan plan;
  plan.ops.push_back({FaultKind::WorkerDeath, 2, 2, 1, 0});
  const FaultRunResult r = run_with_faults(spec, plan);
  EXPECT_FALSE(r.used_checkpoint_restart);
  EXPECT_TRUE(r.reconverged) << r.detail;
}

INSTANTIATE_TEST_SUITE_P(Modes, WorkerDeathRecovery,
                         ::testing::Values("threads", "sim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(LoseTask, DivergenceIsDetectedAndNamesTheDamagedCycle) {
  RunSpec spec = small_spec("sim", "central");
  FaultPlan plan;
  plan.ops.push_back({FaultKind::LoseTask, 0, 0, 2, 0});
  const FaultRunResult r = run_with_faults(spec, plan);
  ASSERT_FALSE(r.reconverged);
  // Losing initial-load root tasks damages the very first quiescent point.
  EXPECT_EQ(r.first_bad_cycle, 0u);
  EXPECT_FALSE(r.detail.empty());
  EXPECT_NE(r.detail.find("cycle 0"), std::string::npos) << r.detail;
}

TEST(Shrink, ReducesFailingPlanToTheSingleBadOp) {
  RunSpec spec = small_spec("sim", "central");
  FaultPlan plan;
  plan.seed = 99;
  plan.ops.push_back({FaultKind::WorkerStall, 0, 1, 3, 200});
  plan.ops.push_back({FaultKind::WorkerStall, 1, 2, 3, 200});
  plan.ops.push_back({FaultKind::LoseTask, 0, 0, 2, 0});
  plan.ops.push_back({FaultKind::DropRequeue, 2, 1, 2, 0});
  const FaultPlan shrunk = shrink_plan(spec, plan);
  ASSERT_EQ(shrunk.ops.size(), 1u) << shrunk.describe();
  EXPECT_EQ(shrunk.ops[0].kind, FaultKind::LoseTask);
  EXPECT_LE(shrunk.ops[0].count, 2u);
  // The shrunk plan still reproduces the failure.
  EXPECT_FALSE(run_with_faults(spec, shrunk).reconverged);
}

TEST(Shrink, LeavesPassingPlansAlone) {
  RunSpec spec = small_spec("sim", "central");
  const FaultPlan plan = FaultPlan::random(1, spec.match_processes);
  EXPECT_EQ(shrink_plan(spec, plan).ops, plan.ops);
}

TEST(Fuzz, BenignSeedsPassAtFastScale) {
  FuzzOptions opt;
  opt.fast = true;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzOutcome out = fuzz_one(seed, opt);
    EXPECT_TRUE(out.passed)
        << "seed " << seed << " plan " << out.plan.describe() << "\n"
        << out.detail;
  }
}

// Locks in the shrink-to-minimal-reproducer behaviour end to end: a
// planted LoseTask bug is detected, and shrinking isolates it.
TEST(Fuzz, SeededBugIsCaughtAndShrunk) {
  FuzzOptions opt;
  opt.fast = true;
  opt.seed_bug = true;
  const FuzzOutcome out = fuzz_one(2, opt);
  ASSERT_FALSE(out.passed) << "planted bug was not detected";
  EXPECT_TRUE(out.shrunk.has_kind(FaultKind::LoseTask))
      << out.shrunk.describe();
  EXPECT_LE(out.shrunk.ops.size(), out.plan.ops.size());
  EXPECT_LE(out.shrunk_max_cycles, fuzz_spec(2, opt).max_cycles);
  // The artifact round-trips through JSON with the shrunk plan intact.
  const obs::Json doc = fuzz_artifact(out);
  EXPECT_EQ(doc.at("schema").as_string(), "psme.rr.fuzz.v1");
  FaultPlan shrunk_back;
  std::string error;
  ASSERT_TRUE(
      FaultPlan::from_json(doc.at("shrunk_plan"), &shrunk_back, &error))
      << error;
  EXPECT_EQ(shrunk_back.ops, out.shrunk.ops);
}

TEST(Metrics, FaultInjectionCountsFires) {
  RunSpec spec = small_spec("sim", "steal");
  FaultPlan plan;
  plan.ops.push_back({FaultKind::WorkerStall, 0, 0, 5, 100});
  FaultInjector inj(plan);
  const ops5::Program program =
      ops5::Program::from_source(spec.workload.source);
  EngineOptions options = options_from(spec);
  options.rr_faults = &inj;
  auto engine = make_engine(program, spec.mode, options);
  for (const std::string& w : spec.workload.initial_wmes) engine->make(w);
  engine->run();
  EXPECT_GT(inj.injected(), 0u);
  EXPECT_LE(inj.injected(), 5u);
}

}  // namespace
}  // namespace psme::rr
