// The simulator-only extensions: hardware task scheduler and overlapped
// conflict resolution (paper Section 3.2 / footnote 3), plus watch output.
#include <gtest/gtest.h>

#include <sstream>

#include "engine/sequential_engine.hpp"
#include "shard/shard_group.hpp"
#include "sim/sim_engine.hpp"
#include "workloads/workloads.hpp"
#include "world/batch_engine.hpp"

namespace psme::sim {
namespace {

struct Out {
  double match_s, total_s;
  MatchStats stats;
  std::vector<FiringRecord> trace;
};

Out run_with(const workloads::Workload& w, const ops5::Program& program,
             SimConfig cfg, int procs = 7, int queues = 1) {
  EngineOptions opt;
  opt.match_processes = procs;
  opt.task_queues = queues;
  opt.max_cycles = 1'000'000;
  SimEngine eng(program, opt, cfg);
  workloads::load(eng, w);
  eng.run();
  return {eng.sim_match_seconds(), eng.sim_total_seconds(),
          eng.match_stats(), eng.trace()};
}

class SimExtensions : public ::testing::Test {
 protected:
  SimExtensions()
      : w_(workloads::rubik(8)),
        program_(ops5::Program::from_source(w_.source)) {}
  workloads::Workload w_;
  ops5::Program program_;
};

TEST_F(SimExtensions, HardwareSchedulerPreservesTheTrace) {
  const Out sw = run_with(w_, program_, {});
  SimConfig hts;
  hts.hardware_scheduler = true;
  const Out hw = run_with(w_, program_, hts);
  EXPECT_EQ(hw.trace, sw.trace);
}

TEST_F(SimExtensions, HardwareSchedulerEliminatesQueueContention) {
  SimConfig hts;
  hts.hardware_scheduler = true;
  const Out hw = run_with(w_, program_, hts, 13, 1);
  EXPECT_DOUBLE_EQ(hw.stats.queue_contention(), 1.0);
  const Out sw = run_with(w_, program_, {}, 13, 1);
  EXPECT_GT(sw.stats.queue_contention(), 2.0);
  // Removing the queue bottleneck cannot make match slower.
  EXPECT_LT(hw.match_s, sw.match_s);
}

TEST_F(SimExtensions, OverlappedCrPreservesTraceAndSavesTime) {
  const Out plain = run_with(w_, program_, {});
  SimConfig ov;
  ov.overlap_cr = true;
  const Out overlapped = run_with(w_, program_, ov);
  EXPECT_EQ(overlapped.trace, plain.trace);
  EXPECT_LE(overlapped.total_s, plain.total_s);
  // Match-phase time itself is untouched: CR lives between phases.
  EXPECT_DOUBLE_EQ(overlapped.match_s, plain.match_s);
}

TEST_F(SimExtensions, ExtensionsAreDeterministic) {
  SimConfig cfg;
  cfg.hardware_scheduler = true;
  cfg.overlap_cr = true;
  const Out a = run_with(w_, program_, cfg);
  const Out b = run_with(w_, program_, cfg);
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.stats.node_activations, b.stats.node_activations);
}

TEST(Watch, Level1PrintsFirings) {
  auto program = ops5::Program::from_source(R"(
(literalize a x)
(p consume (a ^x <v>) --> (remove 1))
)");
  std::ostringstream out;
  EngineOptions opt;
  opt.watch = 1;
  opt.out = &out;
  SequentialEngine eng(program, opt);
  eng.make("(a ^x 7)");
  eng.run();
  EXPECT_EQ(out.str(), "1. consume 1\n");
}

TEST(Watch, Level2AddsWmChanges) {
  auto program = ops5::Program::from_source(R"(
(literalize a x)
(p bump (a ^x 0) --> (modify 1 ^x 1))
)");
  std::ostringstream out;
  EngineOptions opt;
  opt.watch = 2;
  opt.out = &out;
  SequentialEngine eng(program, opt);
  eng.make("(a ^x 0)");
  eng.run();
  const std::string s = out.str();
  EXPECT_NE(s.find("1. bump 1"), std::string::npos);
  EXPECT_NE(s.find("<=WM: 1: (a ^x 0)"), std::string::npos);
  EXPECT_NE(s.find("=>WM: 2: (a ^x 1)"), std::string::npos);
}

TEST(Watch, SimEngineAlsoTraces) {
  auto program = ops5::Program::from_source(R"(
(literalize a x)
(p consume (a ^x <v>) --> (remove 1))
)");
  std::ostringstream out;
  EngineOptions opt;
  opt.watch = 1;
  opt.out = &out;
  opt.match_processes = 2;
  SimEngine eng(program, opt, {});
  eng.make("(a ^x 7)");
  eng.run();
  EXPECT_EQ(out.str(), "1. consume 1\n");
}

TEST(Watch, WorldAndShardSessionsPrintWmChanges) {
  // Every backend prints the same watch-level-2 lines as the sequential
  // engine, each prefixed with its world or shard session.
  auto program = ops5::Program::from_source(R"(
(literalize a x)
(p bump (a ^x 0) --> (modify 1 ^x 1))
)");
  const std::string lines[] = {"1. bump 1\n", "<=WM: 1: (a ^x 0)\n",
                               "=>WM: 2: (a ^x 1)\n"};
  EngineOptions opt;
  opt.watch = 2;

  std::ostringstream seq_out;
  opt.out = &seq_out;
  SequentialEngine eng(program, opt);
  eng.make("(a ^x 0)");
  eng.run();
  EXPECT_EQ(seq_out.str(), lines[0] + lines[1] + lines[2]);

  std::ostringstream world_out;
  opt.out = &world_out;
  opt.worlds = 1;
  world::BatchEngine batch(program, opt);
  batch.make(0, "(a ^x 0)");
  batch.run_all();
  EXPECT_EQ(world_out.str(),
            "[w0] " + lines[0] + "[w0] " + lines[1] + "[w0] " + lines[2]);

  std::ostringstream shard_out;
  opt.out = &shard_out;
  opt.worlds = 0;
  shard::ShardGroupConfig cfg;
  cfg.shards = 2;
  shard::ShardGroup group(program, opt, cfg);
  group.make(0, "(a ^x 0)");
  group.run_all();
  EXPECT_EQ(shard_out.str(),
            "[s0] " + lines[0] + "[s0] " + lines[1] + "[s0] " + lines[2]);
}

}  // namespace
}  // namespace psme::sim
