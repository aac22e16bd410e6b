// Serving subsystem: session protocol, server admission control and
// ordering, graceful drain, and a miniature load-generator run with the
// trace-divergence check on.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "serve/loadgen.hpp"
#include "shard/transport.hpp"
#include "workloads/workloads.hpp"

namespace psme::serve {
namespace {

using std::chrono::steady_clock;

// One firing per cycle, forever: `run` on this program always stops at its
// cycle budget, never at halt or an empty conflict set.
constexpr const char* kTicker = R"(
(literalize c n)
(p tick (c ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";

constexpr const char* kHalter = R"(
(literalize a x)
(p p1 (a ^x 1) --> (halt))
)";

// One single-session shard lane with the given topology.
std::vector<SessionId> server_open_one(Server& server,
                                       const ops5::Program& program,
                                       shard::TransportKind transport,
                                       std::uint16_t shards) {
  return server.open_shard_sessions(program, {}, /*count=*/1, shards,
                                    transport);
}

TEST(Session, ProtocolBasics) {
  const auto program = ops5::Program::from_source(kHalter);
  Session s(program, {});

  Response r = s.execute("make (a ^x 2)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "1");

  r = s.execute("dump");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.text.starts_with("1\n1:")) << r.text;

  r = s.execute("modify 1 ^x 1");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "2");  // remove + make: fresh timetag

  r = s.execute("run");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "cycles=1 total=1 reason=halt");

  r = s.execute("trace");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "1\np1 2");

  r = s.execute("stats");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "cycles=1 firings=1 wm=1");

  r = s.execute("remove 2");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(s.execute("dump").text, "0");
}

TEST(Session, ProtocolErrors) {
  const auto program = ops5::Program::from_source(kHalter);
  Session s(program, {});
  EXPECT_FALSE(s.execute("").ok);
  EXPECT_FALSE(s.execute("frobnicate").ok);
  EXPECT_FALSE(s.execute("remove 99").ok);
  EXPECT_FALSE(s.execute("modify zap ^x 1").ok);
  EXPECT_FALSE(s.execute("modify 99 ^x 1").ok);
  EXPECT_FALSE(s.execute("run nope").ok);
  EXPECT_FALSE(s.execute("restore").ok);
  // A malformed wme literal must come back as err, not as a throw.
  const Response r = s.execute("make (nosuchclass ^x 1)");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.text.starts_with("exception:")) << r.text;
}

TEST(Session, RunSlicesRespectTheDeadline) {
  const auto program = ops5::Program::from_source(kTicker);
  Session s(program, {});
  ASSERT_TRUE(s.execute("make (c ^n 0)").ok);

  // Expired before execution: nothing runs.
  Response r = s.execute("run 10", steady_clock::now() - std::chrono::seconds(1));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.text.starts_with("deadline")) << r.text;
  EXPECT_EQ(s.execute("stats").text, "cycles=0 firings=0 wm=1");

  // Expires mid-run: the request stops at a slice boundary with the state
  // advanced by the cycles already executed (at least one slice, at most
  // one slice past the deadline).
  r = s.execute("run 1000000",
                steady_clock::now() + std::chrono::milliseconds(1));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.text.starts_with("deadline cycles=")) << r.text;
  const std::uint64_t done = s.engine()->stats().cycles;
  EXPECT_GE(done, Session::kRunSlice);
  EXPECT_LT(done, 1000000u);

  // The engine is still consistent: a bounded run continues normally.
  r = s.execute("run 5");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.text, "cycles=5 total=" + std::to_string(done + 5) +
                        " reason=max-cycles");
}

TEST(Session, CheckpointRestoreRoundTripsOverTheProtocol) {
  const auto w = workloads::rubik(8);
  const auto program = ops5::Program::from_source(w.source);
  Session s(program, {});
  for (const std::string& wme : w.initial_wmes)
    ASSERT_TRUE(s.execute("make " + wme).ok);
  ASSERT_TRUE(s.execute("run 10").ok);
  const Response ckpt = s.execute("checkpoint");
  ASSERT_TRUE(ckpt.ok);

  ASSERT_TRUE(s.execute("run 10").ok);
  const std::string full_trace = s.execute("trace").text;

  // Restore rewinds to cycle 10; continuing reproduces the same trace.
  Response r = s.execute("restore " + ckpt.text);
  ASSERT_TRUE(r.ok) << r.text;
  EXPECT_EQ(r.text, "10");
  ASSERT_TRUE(s.execute("run 10").ok);
  EXPECT_EQ(s.execute("trace").text, full_trace);
}

TEST(Server, CallExecutesAndStampsLatency) {
  const auto program = ops5::Program::from_source(kHalter);
  Server server({.workers = 2, .queue_capacity = 16});
  const SessionId id = server.open_session(program, {});
  EXPECT_EQ(server.session_count(), 1u);

  const Response r = server.call(id, "make (a ^x 1)");
  EXPECT_TRUE(r.ok);
  EXPECT_GE(r.complete_us, r.enqueue_us);
  EXPECT_TRUE(server.call(id, "run").ok);
  EXPECT_TRUE(server.close_session(id));
  EXPECT_FALSE(server.close_session(id));
  EXPECT_FALSE(server.call(id, "dump").ok);
}

TEST(Server, PerSessionRequestsExecuteInSubmissionOrder) {
  const auto program = ops5::Program::from_source(kTicker);
  Server server({.workers = 4, .queue_capacity = 256});
  const SessionId id = server.open_session(program, {});
  ASSERT_TRUE(server.call(id, "make (c ^n 0)").ok);

  // 20 single-cycle runs race across 4 workers; the per-session lock plus
  // FIFO queue must keep them in order, summing to exactly 20 cycles.
  std::vector<std::future<Response>> futures;
  futures.reserve(20);
  for (int i = 0; i < 20; ++i) futures.push_back(server.submit(id, "run 1"));
  std::uint64_t last_total = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok) << r.text;
    // "cycles=1 total=<n> ..." with strictly increasing totals.
    const auto pos = r.text.find("total=");
    ASSERT_NE(pos, std::string::npos);
    const std::uint64_t total = std::stoull(r.text.substr(pos + 6));
    EXPECT_EQ(total, last_total + 1);
    last_total = total;
  }
  EXPECT_EQ(last_total, 20u);
}

TEST(Server, BackpressureShedsOnQueueOverflow) {
  const auto program = ops5::Program::from_source(kTicker);
  // One worker and a tiny queue. A slow head request pins the worker so
  // the following flood must overflow the queue (without it, a fast
  // worker can race the submitting thread and drain every request).
  Server server({.workers = 1, .queue_capacity = 2});
  const SessionId id = server.open_session(program, {});
  ASSERT_TRUE(server.call(id, "make (c ^n 0)").ok);

  auto slow = server.submit(id, "run 2000");
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(server.submit(id, "run 50"));
  std::uint64_t ok_count = 0, shed = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (r.ok) {
      ++ok_count;
    } else {
      EXPECT_TRUE(r.text.starts_with("overloaded")) << r.text;
      ++shed;
    }
  }
  ASSERT_TRUE(slow.get().ok);
  EXPECT_EQ(ok_count + shed, 40u);
  EXPECT_GT(shed, 0u);  // 40 deep into a busy capacity-2 queue must shed
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_overload, shed);
  // + the initial make and the slow head request.
  EXPECT_EQ(stats.completed, ok_count + 2);
}

TEST(Server, ExpiredDeadlinesAreShedInQueue) {
  const auto program = ops5::Program::from_source(kTicker);
  Server server({.workers = 1, .queue_capacity = 64});
  const SessionId id = server.open_session(program, {});
  ASSERT_TRUE(server.call(id, "make (c ^n 0)").ok);

  // Head-of-line request is slow; the ones behind it carry already-expired
  // deadlines and must be answered without touching the engine.
  auto slow = server.submit(id, "run 2000");
  std::vector<std::future<Response>> doomed;
  const Deadline past = steady_clock::now() - std::chrono::seconds(1);
  for (int i = 0; i < 4; ++i)
    doomed.push_back(server.submit(id, "run 1", past));
  ASSERT_TRUE(slow.get().ok);
  for (auto& f : doomed) {
    const Response r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.text.starts_with("deadline")) << r.text;
  }
  EXPECT_EQ(server.call(id, "stats").text.find("cycles=2000"), 0u);
  EXPECT_GE(server.stats().shed_deadline, 4u);
}

TEST(Server, DrainFinishesQueuedWorkThenRejects) {
  const auto program = ops5::Program::from_source(kTicker);
  Server server({.workers = 2, .queue_capacity = 64});
  const SessionId id = server.open_session(program, {});
  ASSERT_TRUE(server.call(id, "make (c ^n 0)").ok);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(server.submit(id, "run 5"));
  server.drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);  // finished, not dropped
  EXPECT_EQ(server.session(id)->engine()->stats().cycles, 50u);

  const Response rejected = server.call(id, "run 1");
  EXPECT_FALSE(rejected.ok);
  EXPECT_TRUE(rejected.text.starts_with("overloaded")) << rejected.text;
  server.drain();  // idempotent
}

TEST(Server, ShardSessionsSpeakTheSameProtocol) {
  // Shard-backed sessions answer every protocol command exactly like an
  // engine-backed session: same traces, same stats, same responses.
  const auto w = workloads::rubik(5);
  const auto program = ops5::Program::from_source(w.source);
  Server server({.workers = 2, .queue_capacity = 64});
  const SessionId ref = server.open_session(program, {});
  const auto ids = server.open_shard_sessions(
      program, {}, /*count=*/4, /*shards=*/2, shard::TransportKind::InProc,
      /*lanes=*/2);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(server.session_count(), 5u);

  for (const std::string& wme : w.initial_wmes) {
    ASSERT_TRUE(server.call(ref, "make " + wme).ok);
    for (const SessionId id : ids)
      ASSERT_TRUE(server.call(id, "make " + wme).ok);
  }
  const Response want_run = server.call(ref, "run");
  ASSERT_TRUE(want_run.ok);
  const std::string want_trace = server.call(ref, "trace").text;
  const std::string want_stats = server.call(ref, "stats").text;
  for (const SessionId id : ids) {
    EXPECT_EQ(server.call(id, "run").text, want_run.text);
    EXPECT_EQ(server.call(id, "trace").text, want_trace);
    EXPECT_EQ(server.call(id, "stats").text, want_stats);
  }
  server.drain();
}

TEST(Server, ShardSessionDrainsAndMigratesAcrossTopologies) {
  // The drain/migration path: checkpoint a session served by a 2-shard
  // in-process lane, restore it into a 4-shard socket lane on another
  // server, and the continued run reproduces the uninterrupted trace.
  const auto w = workloads::rubik(5);
  const auto program = ops5::Program::from_source(w.source);

  std::string full_trace;
  {
    Session ref(program, {});
    for (const std::string& wme : w.initial_wmes)
      ASSERT_TRUE(ref.execute("make " + wme).ok);
    ASSERT_TRUE(ref.execute("run").ok);
    full_trace = ref.execute("trace").text;
  }

  Server old_server({.workers = 1, .queue_capacity = 64});
  const auto old_ids = server_open_one(old_server, program,
                                       shard::TransportKind::InProc, 2);
  const SessionId src = old_ids.front();
  for (const std::string& wme : w.initial_wmes)
    ASSERT_TRUE(old_server.call(src, "make " + wme).ok);
  ASSERT_TRUE(old_server.call(src, "run 3").ok);
  const Response ckpt = old_server.call(src, "checkpoint");
  ASSERT_TRUE(ckpt.ok);
  old_server.drain();  // source drained; the checkpoint is the hand-off

  Server new_server({.workers = 1, .queue_capacity = 64});
  const auto new_ids = server_open_one(new_server, program,
                                       shard::TransportKind::Socket, 4);
  const SessionId dst = new_ids.front();
  const Response restored = new_server.call(dst, "restore " + ckpt.text);
  ASSERT_TRUE(restored.ok) << restored.text;
  EXPECT_EQ(restored.text, "3");
  ASSERT_TRUE(new_server.call(dst, "run").ok);
  EXPECT_EQ(new_server.call(dst, "trace").text, full_trace);
  new_server.drain();
}

TEST(Server, AdmissionControlCapsLiveSessions) {
  const auto program = ops5::Program::from_source(kHalter);
  Server server({.workers = 1, .queue_capacity = 16, .max_sessions = 3});
  const SessionId a = server.open_session(program, {});
  server.open_session(program, {});
  // A batch open that would exceed the cap is rejected whole.
  EXPECT_THROW(server.open_batch_sessions(program, {}, 2),
               std::runtime_error);
  EXPECT_THROW(server.open_shard_sessions(program, {}, 2, 2,
                                          shard::TransportKind::InProc),
               std::runtime_error);
  EXPECT_EQ(server.session_count(), 2u);
  // Closing frees capacity for admission again.
  ASSERT_TRUE(server.close_session(a));
  EXPECT_EQ(server.open_batch_sessions(program, {}, 2).size(), 2u);
  EXPECT_EQ(server.session_count(), 3u);
  EXPECT_THROW(server.open_session(program, {}), std::runtime_error);
}

TEST(LoadGen, ClosedLoopFleetHasZeroDivergence) {
  Server server({.workers = 4, .queue_capacity = 512});
  LoadGenConfig config;
  config.sessions = 16;
  config.run_slices = 2;
  config.run_cycles = 15;
  config.engine.mode = ExecutionMode::Sequential;
  obs::Registry registry;
  const LoadGenReport report = run_loadgen(server, config, registry);
  EXPECT_EQ(report.sessions, 16u);
  EXPECT_EQ(report.requests, 32u);
  EXPECT_EQ(report.completed, 32u);
  EXPECT_EQ(report.verified, 16u);
  EXPECT_EQ(report.divergent, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GT(report.p95_us, 0.0);
  EXPECT_EQ(server.session_count(), 0u);  // loadgen closes its sessions

  const obs::Json json = report.to_json();
  EXPECT_EQ(json.at("schema").as_string(), "psme.loadgen.v1");
  EXPECT_EQ(json.number_or("divergent", -1), 0.0);
}

TEST(LoadGen, OpenLoopPoissonArrivals) {
  Server server({.workers = 4, .queue_capacity = 512});
  LoadGenConfig config;
  config.sessions = 8;
  config.run_slices = 2;
  config.run_cycles = 10;
  config.open_rate = 4000.0;  // fast arrivals: the test should not dawdle
  config.engine.mode = ExecutionMode::Sequential;
  obs::Registry registry;
  const LoadGenReport report = run_loadgen(server, config, registry);
  EXPECT_EQ(report.requests, 16u);
  EXPECT_EQ(report.completed + report.shed + report.deadline_misses +
                report.errors,
            16u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.divergent, 0u);
}

}  // namespace
}  // namespace psme::serve
