// Record/replay (src/rr/): log format round-trips, digests are sensitive,
// and a recorded run replays bit-identically — every cycle digest equal,
// every scheduling decision matched — across engine modes and scheduler
// disciplines. Tampered logs must be pinned to the exact bad cycle.
#include <gtest/gtest.h>

#include "rr/digest.hpp"
#include "rr/harness.hpp"
#include "rr/log.hpp"
#include "workloads/workloads.hpp"

namespace psme::rr {
namespace {

TEST(Mix64, OrderAndValueSensitive) {
  const std::uint64_t a = mix64(mix64(0, 1), 2);
  const std::uint64_t b = mix64(mix64(0, 2), 1);
  EXPECT_NE(a, b);
  EXPECT_NE(mix64(0, 1), mix64(0, 2));
  EXPECT_EQ(mix64(7, 42), mix64(7, 42));
}

TEST(LogFormat, JsonRoundTripPreservesEverything) {
  ReplayLog log;
  log.header.workload = "unit";
  log.header.source = "(p r1 (c ^a 1) --> (halt))";
  log.header.initial_wmes = {"(c ^a 1)", "(c ^a 2)"};
  log.header.mode = "sim";
  log.header.scheduler = "steal";
  log.header.lock_scheme = "mrsw";
  log.header.strategy = "mea";
  log.header.match_processes = 5;
  log.header.task_queues = 3;
  log.header.seed = 0xdeadbeefcafef00dull;
  log.header.max_cycles = 150;
  log.header.program_fingerprint = 0xffffffffffffffffull;  // u64 extreme
  CycleRecord c0;
  c0.wm_digest = 0x8000000000000001ull;
  c0.cs_digest = 3;
  c0.pops = {{0, 0xaaaabbbbccccddddull}, {4, 17}};
  c0.cs_entries = {1, 2, 0xfffffffffffffffeull};
  log.cycles.push_back(c0);
  log.cycles.push_back(CycleRecord{});  // all-zero cycle
  log.trace.push_back({7, {3, 1, 2}});

  const std::string text = log.serialize(2);
  ReplayLog back;
  std::string error;
  ASSERT_TRUE(ReplayLog::deserialize(text, &back, &error)) << error;
  EXPECT_EQ(back, log);
  EXPECT_EQ(back.pop_count(), 2u);
}

TEST(LogFormat, RejectsWrongSchemaAndGarbage) {
  ReplayLog out;
  std::string error;
  EXPECT_FALSE(ReplayLog::deserialize("{\"schema\":\"psme.nope\"}", &out,
                                      &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ReplayLog::deserialize("not json at all", &out, &error));
}

TEST(Digests, SensitiveToWorkingMemoryAndConflictSet) {
  const auto w = workloads::tourney(8, false);
  RunSpec a;
  a.workload = w;
  a.mode = "seq";
  a.max_cycles = 5;
  const RecordedRun ra = record_run(a);

  RunSpec b = a;
  b.workload.initial_wmes.pop_back();  // one wme fewer
  const RecordedRun rb = record_run(b);

  ASSERT_FALSE(ra.log.cycles.empty());
  ASSERT_FALSE(rb.log.cycles.empty());
  EXPECT_NE(ra.log.cycles[0].wm_digest, rb.log.cycles[0].wm_digest);
  EXPECT_NE(ra.log.cycles, rb.log.cycles);
  // The conflict-set digest tracks the evolving conflict set: it can't be
  // constant across a run that fires productions every cycle.
  bool cs_varies = false;
  for (const CycleRecord& c : ra.log.cycles)
    cs_varies |= c.cs_digest != ra.log.cycles[0].cs_digest;
  EXPECT_TRUE(cs_varies);
  // Same run twice is digest-identical.
  const RecordedRun ra2 = record_run(a);
  EXPECT_EQ(ra.log.cycles, ra2.log.cycles);
  EXPECT_EQ(ra.log.trace, ra2.log.trace);
}

// The tentpole property: record once, replay pinned to the recorded
// schedule, and every cycle digest matches (bit-identical quiescent
// states) with zero divergences, across workloads x engine modes x
// scheduler disciplines.
struct MatrixCase {
  const char* workload;
  const char* mode;
  const char* scheduler;
};

// gtest's default printout of this struct is its raw bytes, pointers
// included, and that printout ends up in the ctest test names.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.workload << "/" << c.mode << "/" << c.scheduler;
}

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return std::string(info.param.workload) + "_" + info.param.mode + "_" +
         info.param.scheduler;
}

class RecordReplayMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(RecordReplayMatrix, ReplayIsBitIdentical) {
  const MatrixCase& c = GetParam();
  RunSpec spec;
  if (std::string(c.workload) == "weaver")
    spec.workload = workloads::weaver();
  else if (std::string(c.workload) == "rubik")
    spec.workload = workloads::rubik();
  else
    spec.workload = workloads::tourney();
  spec.mode = c.mode;
  spec.scheduler = c.scheduler;
  spec.lock_scheme = "mrsw";
  spec.match_processes = 3;
  spec.task_queues = 2;
  spec.max_cycles = 120;

  const RecordedRun rec = record_run(spec);
  ASSERT_FALSE(rec.log.cycles.empty());
  ASSERT_GT(rec.log.pop_count(), 0u);

  const ReplayOutcome out = replay_run(rec.log);
  EXPECT_TRUE(out.report.ok()) << out.report.detail;
  EXPECT_EQ(out.report.cycles_checked, rec.log.cycles.size());
  EXPECT_EQ(out.report.pops_matched, rec.log.pop_count());
  EXPECT_EQ(out.trace, rec.log.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, RecordReplayMatrix,
    ::testing::Values(MatrixCase{"weaver", "threads", "central"},
                      MatrixCase{"weaver", "threads", "steal"},
                      MatrixCase{"weaver", "sim", "central"},
                      MatrixCase{"weaver", "sim", "steal"},
                      MatrixCase{"rubik", "threads", "central"},
                      MatrixCase{"rubik", "threads", "steal"},
                      MatrixCase{"rubik", "sim", "central"},
                      MatrixCase{"rubik", "sim", "steal"},
                      MatrixCase{"tourney", "threads", "central"},
                      MatrixCase{"tourney", "threads", "steal"},
                      MatrixCase{"tourney", "sim", "central"},
                      MatrixCase{"tourney", "sim", "steal"}),
    case_name);

TEST(RecordReplay, SerializedLogReplaysAfterRoundTrip) {
  RunSpec spec;
  spec.workload = workloads::tourney(8, false);
  spec.mode = "sim";
  spec.scheduler = "steal";
  spec.match_processes = 3;
  spec.max_cycles = 60;
  const RecordedRun rec = record_run(spec);

  ReplayLog log;
  std::string error;
  ASSERT_TRUE(ReplayLog::deserialize(rec.log.serialize(), &log, &error))
      << error;
  const ReplayOutcome out = replay_run(log);
  EXPECT_TRUE(out.report.ok()) << out.report.detail;
}

TEST(RecordReplay, TamperedDigestIsPinnedToItsCycle) {
  RunSpec spec;
  spec.workload = workloads::tourney(8, false);
  spec.mode = "sim";
  spec.match_processes = 3;
  spec.max_cycles = 60;
  RecordedRun rec = record_run(spec);
  ASSERT_GT(rec.log.cycles.size(), 4u);

  const std::size_t bad = rec.log.cycles.size() / 2;
  rec.log.cycles[bad].cs_digest ^= 1;

  const ReplayOutcome out = replay_run(rec.log);
  EXPECT_TRUE(out.report.digest_diverged);
  EXPECT_EQ(out.report.first_bad_cycle, bad);
  EXPECT_FALSE(out.report.detail.empty());
}

TEST(RecordReplay, SequentialRecordingIsDigestOnlyAndReplays) {
  RunSpec spec;
  spec.workload = workloads::tourney(8, false);
  spec.mode = "seq";
  spec.max_cycles = 60;
  const RecordedRun rec = record_run(spec);
  EXPECT_EQ(rec.log.pop_count(), 0u);  // no scheduler => digests only
  ASSERT_FALSE(rec.log.cycles.empty());

  const ReplayOutcome out = replay_run(rec.log);
  EXPECT_TRUE(out.report.ok()) << out.report.detail;
  EXPECT_EQ(out.report.cycles_checked, rec.log.cycles.size());
}

TEST(RecordReplay, ReplayRefusesMismatchedProgram) {
  RunSpec spec;
  spec.workload = workloads::tourney(8, false);
  spec.mode = "seq";
  spec.max_cycles = 20;
  RecordedRun rec = record_run(spec);
  // A header naming the removed sequence-lock scheme is refused, not
  // replayed under another scheme.
  ReplayLog retired = rec.log;
  retired.header.lock_scheme = "seq" "lock";
  try {
    replay_run(retired);
    ADD_FAILURE() << "replayed a log with a retired lock scheme";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad lock scheme"),
              std::string::npos) << e.what();
  }
  rec.log.header.program_fingerprint ^= 1;
  EXPECT_THROW(replay_run(rec.log), std::runtime_error);
}

// Record and replay take the engine vocabulary's canonical names for the
// modes replay can pin; anything else is refused up front, and a log
// header naming one is a replay error for every axis.
TEST(RecordReplay, ShapeNamesGoThroughTheEngineVocabulary) {
  RunSpec spec;
  spec.mode = "sim";
  spec.scheduler = "steal";
  spec.lock_scheme = "mrsw";
  spec.strategy = "mea";
  spec.match_processes = 3;
  const EngineConfig config = config_from(spec);
  EXPECT_EQ(config.mode, ExecutionMode::SimulatedMultimax);
  EXPECT_EQ(config.options.scheduler, match::SchedulerKind::Steal);
  EXPECT_EQ(config.options.lock_scheme, match::LockScheme::Mrsw);
  EXPECT_EQ(config.options.strategy, CrStrategy::Mea);
  EXPECT_EQ(config.options.match_processes, 3);
  spec.mode = "seq";
  EXPECT_EQ(config_from(spec).options.match_processes, 0);
  for (const char* mode : {"vs2", "vs1", "lisp", "treat", "bogus"}) {
    spec.mode = mode;
    EXPECT_THROW(config_from(spec), std::invalid_argument) << mode;
  }

  spec = RunSpec{};
  spec.workload = workloads::tourney(8, false);
  spec.mode = "seq";
  spec.max_cycles = 5;
  const RecordedRun rec = record_run(spec);
  const auto expect_refused = [&](auto mutate, const std::string& needle) {
    ReplayLog bad = rec.log;
    mutate(bad.header);
    try {
      replay_run(bad);
      ADD_FAILURE() << "replayed a log with a bad " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad " + needle),
                std::string::npos) << e.what();
    }
  };
  expect_refused([](LogHeader& h) { h.mode = "lisp"; }, "mode");
  expect_refused([](LogHeader& h) { h.scheduler = "fifo"; }, "scheduler");
  expect_refused([](LogHeader& h) { h.strategy = "LEX"; }, "strategy");
}

TEST(TraceDivergence, RendersFirstDifference) {
  const auto w = workloads::tourney(8, false);
  const auto program = ops5::Program::from_source(w.source);
  RunSpec spec;
  spec.workload = w;
  spec.mode = "seq";
  spec.max_cycles = 10;
  const RecordedRun rec = record_run(spec);
  ASSERT_GE(rec.log.trace.size(), 2u);

  EXPECT_EQ(trace_divergence(rec.log.trace, rec.log.trace, program), "");
  auto mutated = rec.log.trace;
  mutated[1].timetags.push_back(999);
  const std::string diff =
      trace_divergence(rec.log.trace, mutated, program);
  EXPECT_NE(diff.find("cycle 2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("999"), std::string::npos) << diff;
}

}  // namespace
}  // namespace psme::rr
