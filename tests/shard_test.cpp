// ShardGroup behavior tests: partitioned runs reproduce the sequential
// engine's firing traces on both transports, keyless joins are correct
// under BOTH policies (single-owner fallback and replication),
// checkpoints drain/migrate across groups with different shard counts
// AND transports, resets rebuild clean state, and protocol-level
// violations (fingerprint mismatch, foreign sessions, non-increasing
// flush epochs) are rejected as ProtocolError.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/parallelism.hpp"
#include "common/symbol_table.hpp"
#include "engine/sequential_engine.hpp"
#include "serve/checkpoint.hpp"
#include "shard/partition.hpp"
#include "shard/shard_group.hpp"
#include "workloads/workloads.hpp"

namespace psme::shard {
namespace {

std::vector<FiringRecord> sequential_trace(
    const ops5::Program& program, const std::vector<std::string>& wmes,
    std::uint64_t max_cycles = 1'000'000) {
  SequentialEngine eng(program, EngineOptions{});
  for (const std::string& w : wmes) eng.make(w);
  eng.set_max_cycles(max_cycles);
  eng.run();
  return eng.trace();
}

ShardGroupConfig cfg_of(std::uint16_t shards, std::uint32_t sessions,
                        TransportKind t,
                        KeylessPolicy keyless = KeylessPolicy::Replicate,
                        bool overlap = true) {
  ShardGroupConfig cfg;
  cfg.shards = shards;
  cfg.sessions = sessions;
  cfg.transport = t;
  cfg.keyless = keyless;
  cfg.overlap = overlap;
  return cfg;
}

constexpr const char* kCounter = R"(
(literalize step n)
(literalize acc total)
(p add (step ^n <v>) (acc ^total <t>) --> (remove 1))
(p done (acc ^total <t>) - (step ^n <v>) --> (halt))
)";

TEST(ShardGroup, MatchesSequentialOnBothTransports) {
  const auto wl = workloads::rubik(5);
  const auto program = ops5::Program::from_source(wl.source);
  const std::vector<FiringRecord> ref =
      sequential_trace(program, wl.initial_wmes);
  ASSERT_FALSE(ref.empty());
  for (const TransportKind t :
       {TransportKind::InProc, TransportKind::Socket}) {
    for (const std::uint16_t shards : {1, 3}) {
      EngineOptions opt;
      opt.hash_buckets = 64;
      ShardGroup group(program, opt, cfg_of(shards, 2, t));
      for (std::uint32_t s = 0; s < 2; ++s)
        for (const std::string& w : wl.initial_wmes) group.make(s, w);
      group.run_all();
      for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_EQ(group.trace(s), ref)
            << "shards=" << shards << " session=" << s << " transport="
            << (t == TransportKind::Socket ? "socket" : "inproc");
        EXPECT_EQ(group.control(s).result().reason, StopReason::Halt);
      }
    }
  }
}

TEST(ShardGroup, KeylessAndNegatedJoinsStaySingleOwner) {
  // `done` has a negated CE and `add`'s CEs share no variable with the
  // negation — the keyless fallback must still produce the sequential
  // result on many shards.
  const auto program = ops5::Program::from_source(kCounter);
  const std::vector<std::string> wmes = {"(acc ^total 0)", "(step ^n 1)",
                                         "(step ^n 2)", "(step ^n 3)"};
  const std::vector<FiringRecord> ref = sequential_trace(program, wmes);
  EngineOptions opt;
  ShardGroup group(program, opt,
                   cfg_of(4, 1, TransportKind::InProc, KeylessPolicy::Owner,
                          /*overlap=*/false));
  for (const std::string& w : wmes) group.make(0, w);
  group.run_all();
  EXPECT_EQ(group.trace(0), ref);
  EXPECT_EQ(group.control(0).result().reason, StopReason::Halt);
  const GroupStats gs = group.group_stats();
  EXPECT_EQ(gs.replicated_nodes, 0u);
  EXPECT_EQ(gs.replicated_keeps, 0u);
  EXPECT_EQ(gs.overlap_rounds, 0u);
}

TEST(ShardGroup, KeylessReplicationMatchesSequentialAndKeepsLocal) {
  // Same keyless + negated program under KeylessPolicy::Replicate: the
  // wme-side memories replicate (every shard applies the writes), left
  // probes stay local, and the trace is still exactly sequential.
  const auto program = ops5::Program::from_source(kCounter);
  const std::vector<std::string> wmes = {"(acc ^total 0)", "(step ^n 1)",
                                         "(step ^n 2)", "(step ^n 3)"};
  const std::vector<FiringRecord> ref = sequential_trace(program, wmes);
  for (const bool overlap : {false, true}) {
    EngineOptions opt;
    ShardGroup group(program, opt,
                     cfg_of(4, 1, TransportKind::InProc,
                            KeylessPolicy::Replicate, overlap));
    for (const std::string& w : wmes) group.make(0, w);
    group.run_all();
    EXPECT_EQ(group.trace(0), ref) << "overlap=" << overlap;
    EXPECT_EQ(group.control(0).result().reason, StopReason::Halt);
    const GroupStats gs = group.group_stats();
    EXPECT_GT(gs.replicated_nodes, 0u);
    EXPECT_GT(gs.replicated_keeps, 0u);
    if (overlap) EXPECT_EQ(gs.overlap_rounds, gs.rounds);
  }
}

TEST(ShardGroup, MaxCyclesAndRerunsWork) {
  const auto wl = workloads::rubik(5);
  const auto program = ops5::Program::from_source(wl.source);
  const std::vector<FiringRecord> ref =
      sequential_trace(program, wl.initial_wmes);
  EngineOptions opt;
  opt.hash_buckets = 64;
  ShardGroup group(program, opt, cfg_of(2, 1, TransportKind::InProc));
  for (const std::string& w : wl.initial_wmes) group.make(0, w);
  group.set_max_cycles(0, 4);
  EXPECT_EQ(group.run_session(0).reason, StopReason::MaxCycles);
  EXPECT_EQ(group.trace(0).size(), 4u);
  // Raising the cap and re-running continues the same trajectory.
  group.set_max_cycles(0, 1'000'000);
  EXPECT_EQ(group.run_session(0).reason, StopReason::Halt);
  EXPECT_EQ(group.trace(0), ref);
}

TEST(ShardGroup, WatchOutputNamesSessionAndProduction) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  std::ostringstream oss;
  EngineOptions opt;
  opt.watch = 1;
  opt.out = &oss;
  ShardGroup group(program, opt, cfg_of(2, 1, TransportKind::InProc));
  for (const std::string& w : wl.initial_wmes) group.make(0, w);
  group.set_max_cycles(0, 2);
  group.run_all();
  EXPECT_NE(oss.str().find("[s0] 1. "), std::string::npos) << oss.str();
}

TEST(ShardGroup, InterconnectAccountingIsPopulated) {
  const auto wl = workloads::rubik(5);
  const auto program = ops5::Program::from_source(wl.source);
  EngineOptions opt;
  opt.hash_buckets = 64;
  ShardGroup group(program, opt, cfg_of(3, 1, TransportKind::InProc));
  for (const std::string& w : wl.initial_wmes) group.make(0, w);
  group.run_all();
  const GroupStats gs = group.group_stats();
  EXPECT_GT(gs.batches, 0u);
  EXPECT_GT(gs.frames, 0u);
  EXPECT_GT(gs.bytes_sent, 0u);
  EXPECT_GT(gs.bytes_received, 0u);
  EXPECT_GT(gs.deltas, 0u);
  EXPECT_GT(gs.tasks, 0u);
  // Root emissions are partitioned: with 3 shards, some emissions were
  // owned elsewhere and dropped by the non-owners.
  EXPECT_GT(gs.dropped, 0u);
  EXPECT_GT(gs.rounds, 0u);
  EXPECT_GT(gs.compute_vtime, 0u);
  EXPECT_GT(gs.comm_vtime, 0u);
  // Makespan: at least one round's slowest path, at most the serialized
  // sum of everything.
  EXPECT_GT(gs.makespan_vtime, 0u);
  EXPECT_LE(gs.makespan_vtime, gs.compute_vtime + gs.comm_vtime);
}

TEST(ShardGroup, OneShardPricesLikeTheProfiler) {
  // One shard does all the match work, so its modeled compute is the
  // profiler's total work under the same cost model. The two root tasks
  // emit four tasks between them, each charged alpha_emit.
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b x)
(p one (a ^x 1) --> (halt))
(p two (a ^x 1) (b ^x <v>) --> (remove 2))
)");
  const std::vector<std::string> wmes = {"(a ^x 1)", "(b ^x 3)"};
  ShardGroup group(program, EngineOptions{},
                   cfg_of(1, 1, TransportKind::InProc));
  for (const std::string& w : wmes) group.make(0, w);
  group.run_all();
  EXPECT_EQ(group.group_stats().compute_vtime,
            analysis::profile_parallelism(program, wmes).total_work);
}

TEST(ShardGroup, CheckpointMigratesAcrossShardCountAndTransport) {
  const auto wl = workloads::rubik(5);
  const auto program = ops5::Program::from_source(wl.source);
  const std::vector<FiringRecord> ref =
      sequential_trace(program, wl.initial_wmes);
  ASSERT_GT(ref.size(), 3u);

  // Source group: 2 shards over in-process lanes; drain at cycle 3.
  EngineOptions opt;
  opt.hash_buckets = 64;
  ShardGroup source(program, opt, cfg_of(2, 1, TransportKind::InProc));
  for (const std::string& w : wl.initial_wmes) source.make(0, w);
  source.set_max_cycles(0, 3);
  source.run_all();
  const EngineSnapshot snap = source.snapshot_session(0);
  EXPECT_EQ(snap.cycles, 3u);
  EXPECT_EQ(snap.trace.size(), 3u);

  // Destination group: DIFFERENT shard count and transport. The
  // partition re-hashes (jump consistent hashing) and the resumed run
  // must continue the original trajectory exactly.
  ShardGroup dest(program, opt, cfg_of(4, 1, TransportKind::Socket));
  dest.restore_session(0, snap);
  dest.run_session(0);
  EXPECT_EQ(dest.trace(0), ref);
  EXPECT_EQ(dest.control(0).result().reason, StopReason::Halt);
}

TEST(ShardGroup, ResetRebuildsACleanSession) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  EngineOptions opt;
  opt.hash_buckets = 64;
  ShardGroup group(program, opt, cfg_of(3, 2, TransportKind::InProc));
  for (std::uint32_t s = 0; s < 2; ++s)
    for (const std::string& w : wl.initial_wmes) group.make(s, w);
  group.run_all();
  const std::vector<FiringRecord> first = group.trace(0);
  ASSERT_FALSE(first.empty());

  group.reset_session(0);
  EXPECT_TRUE(group.trace(0).empty());
  EXPECT_EQ(group.control(0).wm->size(), 0u);
  for (const std::string& w : wl.initial_wmes) group.make(0, w);
  group.run_session(0);
  EXPECT_EQ(group.trace(0), first);
  // Session 1 was untouched by the reset.
  EXPECT_EQ(group.trace(1), first);
}

TEST(ShardGroup, RestoreRequiresAFreshSession) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  EngineOptions opt;
  ShardGroup group(program, opt, cfg_of(2, 1, TransportKind::InProc));
  for (const std::string& w : wl.initial_wmes) group.make(0, w);
  group.set_max_cycles(0, 2);
  group.run_all();
  const EngineSnapshot snap = group.snapshot_session(0);
  EXPECT_THROW(group.restore_session(0, snap), std::logic_error);
  group.reset_session(0);
  group.restore_session(0, snap);  // fresh now
}

TEST(ShardState, HelloFingerprintMismatchIsRejected) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  const auto net = rete::build_network(program);
  ShardConfig sc;
  sc.self = 0;
  sc.shards = 1;
  sc.sessions = 1;
  sc.fingerprint = serve::Checkpoint::fingerprint_of(program);
  ShardState shard(program, *net, EngineOptions{}, sc);

  BatchWriter w(kCoordinator, 0);
  HelloFrame h;
  h.fingerprint = sc.fingerprint ^ 1;  // wrong program
  h.shards = 1;
  h.self = 0;
  h.sessions = 1;
  w.hello(h);
  EXPECT_THROW(shard.handle(w.take()), ProtocolError);

  BatchWriter topo(kCoordinator, 0);
  h.fingerprint = sc.fingerprint;
  h.shards = 2;  // wrong topology
  topo.hello(h);
  EXPECT_THROW(shard.handle(topo.take()), ProtocolError);
}

TEST(ShardState, ForeignSessionAndUnknownTagsAreRejected) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  const auto net = rete::build_network(program);
  ShardConfig sc;
  sc.self = 0;
  sc.shards = 1;
  sc.sessions = 2;
  sc.fingerprint = serve::Checkpoint::fingerprint_of(program);
  ShardState shard(program, *net, EngineOptions{}, sc);

  {
    BatchWriter w(kCoordinator, 0);
    WmDeltaFrame f;
    f.session = 7;  // only 2 sessions exist
    f.sign = -1;
    f.tag = 1;
    w.wm_delta(f);
    EXPECT_THROW(shard.handle(w.take()), ProtocolError);
  }
  {
    BatchWriter w(kCoordinator, 0);
    WmDeltaFrame f;
    f.session = 0;
    f.sign = -1;  // removing a timetag that was never made
    f.tag = 99;
    w.wm_delta(f);
    EXPECT_THROW(shard.handle(w.take()), ProtocolError);
  }
  {
    BatchWriter w(kCoordinator, 0);
    TaskFwdFrame f;
    f.session = 0;
    f.join_id = 0xdeadbeef;  // no such join node
    f.dst = 0;
    f.sign = +1;
    f.tags = {1};
    w.task_fwd(f);
    EXPECT_THROW(shard.handle(w.take()), ProtocolError);
  }
}

TEST(ShardState, FlushMarkEpochsMustIncrease) {
  const auto wl = workloads::rubik(4);
  const auto program = ops5::Program::from_source(wl.source);
  const auto net = rete::build_network(program);
  ShardConfig sc;
  sc.self = 0;
  sc.shards = 1;
  sc.sessions = 1;
  sc.fingerprint = serve::Checkpoint::fingerprint_of(program);
  ShardState shard(program, *net, EngineOptions{}, sc);

  // A marked batch drains and echoes the mark back before BatchDone.
  BatchWriter w(kCoordinator, 0);
  w.flush_mark({7, 5});
  const Batch reply = decode_batch(shard.handle(w.take()));
  ASSERT_EQ(reply.frames.size(), 2u);
  EXPECT_EQ(reply.frames[0].type, FrameType::FlushAck);
  EXPECT_EQ(reply.frames[0].flush.cycle, 7u);
  EXPECT_EQ(reply.frames[0].flush.epoch, 5u);
  EXPECT_EQ(reply.frames[1].type, FrameType::BatchDone);

  // Epochs are strictly increasing over the connection: a replayed or
  // reordered mark is a protocol violation, not a silent no-op.
  BatchWriter replay(kCoordinator, 0);
  replay.flush_mark({8, 5});
  EXPECT_THROW(shard.handle(replay.take()), ProtocolError);
  BatchWriter stale(kCoordinator, 0);
  stale.flush_mark({8, 3});
  EXPECT_THROW(shard.handle(stale.take()), ProtocolError);
  BatchWriter next(kCoordinator, 0);
  next.flush_mark({8, 6});
  EXPECT_NO_THROW(shard.handle(next.take()));
}

}  // namespace
}  // namespace psme::shard
