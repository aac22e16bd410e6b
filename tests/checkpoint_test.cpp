// Checkpoint round-trip property: running N cycles, checkpointing,
// restoring into a fresh engine, and continuing yields the identical
// firing trace as the uninterrupted run — across execution modes and
// workloads, and across the JSON wire format.
#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "shard/shard_group.hpp"
#include "workloads/workloads.hpp"
#include "world/batch_engine.hpp"

namespace psme {
namespace {

struct Case {
  const char* name;
  workloads::Workload workload;
};

std::vector<Case> small_workloads() {
  std::vector<Case> cases;
  cases.push_back({"weaver", workloads::weaver(3, 2)});
  cases.push_back({"rubik", workloads::rubik(8)});
  cases.push_back({"tourney", workloads::tourney(6, false)});
  return cases;
}

EngineConfig config_for(ExecutionMode mode) {
  EngineConfig config;
  config.mode = mode;
  if (mode == ExecutionMode::ParallelThreads ||
      mode == ExecutionMode::SimulatedMultimax)
    config.options.match_processes = 3;
  return config;
}

// The uninterrupted reference: load, run to `cap` cycles, return the trace.
std::vector<FiringRecord> reference_trace(const ops5::Program& program,
                                          const workloads::Workload& w,
                                          EngineConfig config,
                                          std::uint64_t cap) {
  config.options.max_cycles = cap;
  Engine engine(program, config);
  workloads::load(engine, w);
  engine.run();
  return engine.trace();
}

class CheckpointRoundTrip : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(CheckpointRoundTrip, RestoredRunContinuesTheUninterruptedTrace) {
  const ExecutionMode mode = GetParam();
  constexpr std::uint64_t kCap = 40;
  for (const Case& c : small_workloads()) {
    SCOPED_TRACE(c.name);
    const auto program = ops5::Program::from_source(c.workload.source);
    const auto expected =
        reference_trace(program, c.workload, config_for(mode), kCap);
    ASSERT_FALSE(expected.empty());

    // Split points: before any cycle, after one, mid-run, near the end.
    const std::uint64_t fired =
        static_cast<std::uint64_t>(expected.size());
    for (std::uint64_t split :
         {std::uint64_t{0}, std::uint64_t{1}, fired / 2, fired - 1}) {
      SCOPED_TRACE("split=" + std::to_string(split));
      EngineConfig config = config_for(mode);
      config.options.max_cycles = split;
      Engine first(program, config);
      workloads::load(first, c.workload);
      if (split > 0) first.run();

      // Serialize through the wire format, not just the in-memory struct.
      const serve::Checkpoint ckpt = serve::Checkpoint::capture(first.base());
      const serve::Checkpoint wire =
          serve::Checkpoint::deserialize(ckpt.serialize());
      EXPECT_EQ(wire.fingerprint, ckpt.fingerprint);

      EngineConfig rest = config_for(mode);
      rest.options.max_cycles = kCap;
      Engine second(program, rest);
      wire.restore(second.base());
      EXPECT_EQ(second.trace(),
                std::vector<FiringRecord>(expected.begin(),
                                          expected.begin() +
                                              static_cast<long>(split)));
      second.run();
      EXPECT_EQ(second.trace(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckpointRoundTrip,
                         ::testing::Values(ExecutionMode::Sequential,
                                           ExecutionMode::ParallelThreads,
                                           ExecutionMode::SimulatedMultimax),
                         [](const auto& info) {
                           switch (info.param) {
                             case ExecutionMode::Sequential:
                               return "Sequential";
                             case ExecutionMode::ParallelThreads:
                               return "ParallelThreads";
                             default:
                               return "SimulatedMultimax";
                           }
                         });

TEST(Checkpoint, CrossModeRestore) {
  // A checkpoint captures no match state, so a sequential checkpoint must
  // restore into a parallel engine (and vice versa) with the same trace.
  const auto w = workloads::rubik(8);
  const auto program = ops5::Program::from_source(w.source);
  const auto expected = reference_trace(
      program, w, config_for(ExecutionMode::Sequential), 40);

  EngineConfig seq = config_for(ExecutionMode::Sequential);
  seq.options.max_cycles = 10;
  Engine first(program, seq);
  workloads::load(first, w);
  first.run();
  const serve::Checkpoint ckpt = serve::Checkpoint::capture(first.base());

  EngineConfig par = config_for(ExecutionMode::ParallelThreads);
  par.options.max_cycles = 40;
  Engine second(program, par);
  ckpt.restore(second.base());
  second.run();
  EXPECT_EQ(second.trace(), expected);
}

TEST(Checkpoint, RestoresAcrossBackends) {
  // One Control writes and reads every backend's checkpoints, so a world's
  // checkpoint must resume on a single engine and on a shard session.
  const auto w = workloads::tourney(6, false);
  const auto program = ops5::Program::from_source(w.source);
  const auto expected = reference_trace(
      program, w, config_for(ExecutionMode::Sequential), 40);
  ASSERT_GT(expected.size(), 10u);

  EngineOptions wopt;
  wopt.worlds = 1;
  wopt.max_cycles = 10;
  world::BatchEngine batch(program, wopt);
  for (const std::string& lit : w.initial_wmes) batch.make(0, lit);
  batch.run_all();
  ASSERT_EQ(batch.world(0).stats.cycles, 10u);
  const serve::Checkpoint ckpt = serve::Checkpoint::deserialize(
      serve::Checkpoint::capture(program, batch.snapshot_session(0))
          .serialize());

  EngineConfig seq = config_for(ExecutionMode::Sequential);
  seq.options.max_cycles = 40;
  Engine engine(program, seq);
  ckpt.restore(engine.base());
  engine.run();
  EXPECT_EQ(engine.trace(), expected);

  EngineOptions sopt;
  sopt.max_cycles = 40;
  shard::ShardGroupConfig cfg;
  cfg.shards = 2;
  shard::ShardGroup group(program, sopt, cfg);
  ckpt.verify(program);
  group.restore_session(0, ckpt.snapshot);
  group.run_session(0);
  EXPECT_EQ(group.trace(0), expected);
}

TEST(Checkpoint, RefusesForeignProgram) {
  const auto w1 = workloads::rubik(8);
  const auto w2 = workloads::tourney(6, false);
  const auto p1 = ops5::Program::from_source(w1.source);
  const auto p2 = ops5::Program::from_source(w2.source);
  Engine e1(p1, config_for(ExecutionMode::Sequential));
  workloads::load(e1, w1);
  const serve::Checkpoint ckpt = serve::Checkpoint::capture(e1.base());

  Engine e2(p2, config_for(ExecutionMode::Sequential));
  EXPECT_THROW(ckpt.restore(e2.base()), serve::CheckpointError);
}

TEST(Checkpoint, RefusesNonFreshEngine) {
  const auto w = workloads::rubik(8);
  const auto program = ops5::Program::from_source(w.source);
  EngineConfig config = config_for(ExecutionMode::Sequential);
  config.options.max_cycles = 5;
  Engine engine(program, config);
  workloads::load(engine, w);
  engine.run();
  const serve::Checkpoint ckpt = serve::Checkpoint::capture(engine.base());
  // Restoring on top of existing state would conflate two histories.
  EXPECT_THROW(ckpt.restore(engine.base()), std::logic_error);
}

TEST(Checkpoint, EqualStatesSerializeToEqualBytes) {
  // The fired (refraction) records come out of the conflict set in table
  // order, which follows wme addresses and insertion order; the checkpoint
  // sorts them, so one state gives one byte string whatever the engine
  // and wherever its wmes were allocated.
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(p r (a ^x <v>) --> (make b ^y <v>))
(p q (a ^x <v>) --> (make b ^y <v>))
)");
  auto capture = [&](ExecutionMode mode) {
    EngineConfig config = config_for(mode);
    config.options.max_cycles = 20;
    Engine engine(program, config);
    for (int i = 0; i < 30; ++i)
      engine.make("(a ^x " + std::to_string(i) + ")");
    engine.run();
    return serve::Checkpoint::capture(engine.base()).serialize();
  };
  const std::string seq = capture(ExecutionMode::Sequential);
  EXPECT_NE(seq.find("\"fired\":[["), std::string::npos);
  EXPECT_EQ(capture(ExecutionMode::Sequential), seq);
  EXPECT_EQ(capture(ExecutionMode::ParallelThreads), seq);
}

TEST(Checkpoint, SerializationIsStable) {
  const auto w = workloads::tourney(6, false);
  const auto program = ops5::Program::from_source(w.source);
  EngineConfig config = config_for(ExecutionMode::Sequential);
  config.options.max_cycles = 7;
  Engine engine(program, config);
  workloads::load(engine, w);
  engine.run();
  const serve::Checkpoint ckpt = serve::Checkpoint::capture(engine.base());
  const std::string text = ckpt.serialize();
  // serialize(deserialize(text)) is a fixed point.
  EXPECT_EQ(serve::Checkpoint::deserialize(text).serialize(), text);

  EXPECT_THROW(serve::Checkpoint::deserialize("{\"schema\":\"nope\"}"),
               serve::CheckpointError);
  EXPECT_THROW(serve::Checkpoint::deserialize("not json"), std::exception);
}

}  // namespace
}  // namespace psme
