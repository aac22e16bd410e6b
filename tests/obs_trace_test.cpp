// Trace recorder: golden-file JSON format, and trace <-> MatchStats
// consistency for both parallel engines on a real workload.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "engine/parallel_engine.hpp"
#include "obs/json.hpp"
#include "psme.hpp"

namespace psme::obs {
namespace {

TraceEvent make_event(double ts, double dur, TraceEventKind kind,
                      std::int8_t sign, std::uint32_t node,
                      std::uint32_t line_probes, std::uint32_t queue_probes) {
  TraceEvent ev;
  ev.ts_us = ts;
  ev.dur_us = dur;
  ev.kind = kind;
  ev.sign = sign;
  ev.node = node;
  ev.line_probes = line_probes;
  ev.queue_probes = queue_probes;
  return ev;
}

TEST(TraceRecorderTest, DisabledRecorderDropsEvents) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.record(0, TraceEvent{});
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(TraceRecorderTest, GoldenJson) {
  TraceRecorder rec;
  rec.enable(2, "virtual");
  ASSERT_TRUE(rec.enabled());
  rec.record(0, make_event(1.5, 2.25, TraceEventKind::Root, +1, 0, 0, 2));
  rec.record(1, make_event(10, 0.5, TraceEventKind::JoinLeft, -1, 7, 3, 1));
  EXPECT_EQ(rec.event_count(), 2u);

  std::ostringstream os;
  rec.write_json(os);
  const std::string expected = R"({
"displayTimeUnit": "ms",
"otherData": {"tool": "psme", "clock": "virtual"},
"traceEvents": [
  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "control"}},
  {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "match-0"}},
  {"ph": "X", "pid": 0, "tid": 0, "name": "root", "cat": "task", "ts": 1.500, "dur": 2.250, "args": {"node": 0, "sign": 1, "line_probes": 0, "queue_probes": 2}},
  {"ph": "X", "pid": 0, "tid": 1, "name": "join_left", "cat": "task", "ts": 10.000, "dur": 0.500, "args": {"node": 7, "sign": -1, "line_probes": 3, "queue_probes": 1}}
]
}
)";
  EXPECT_EQ(os.str(), expected);

  // And the golden text is valid JSON that round-trips the event fields.
  Json parsed;
  std::string error;
  ASSERT_TRUE(json_parse(os.str(), &parsed, &error)) << error;
  const JsonArray& events = parsed.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].at("name").as_string(), "join_left");
  EXPECT_DOUBLE_EQ(events[3].at("ts").as_double(), 10.0);
  EXPECT_EQ(events[3].at("args").at("sign").as_int(), -1);
  EXPECT_EQ(events[3].at("args").at("line_probes").as_uint(), 3u);
}

// trace_report's cross-checks, in process: every completed task has exactly
// one event, the per-side line-probe sums match the merged MatchStats, and
// the traced queue probes are a subset of all queue probes (pushes from
// the control thread happen outside any task).
void expect_trace_matches_stats(const Observability& obs,
                                const MatchStats& stats,
                                const std::string& clock) {
  std::ostringstream os;
  obs.trace.write_json(os);
  Json parsed;
  std::string error;
  ASSERT_TRUE(json_parse(os.str(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.at("otherData").at("clock").as_string(), clock);

  std::uint64_t completed = 0;
  std::uint64_t side_probes[2] = {0, 0};
  std::uint64_t queue_probes = 0;
  std::uint64_t x_events = 0;
  for (const Json& ev : parsed.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "X") continue;
    x_events += 1;
    const std::string& name = ev.at("name").as_string();
    const Json& args = ev.at("args");
    const auto lp = static_cast<std::uint64_t>(args.number_or("line_probes", 0));
    queue_probes +=
        static_cast<std::uint64_t>(args.number_or("queue_probes", 0));
    if (name == "join_left" || name == "requeue_left") side_probes[0] += lp;
    if (name == "join_right" || name == "requeue_right") side_probes[1] += lp;
    if (name != "requeue_left" && name != "requeue_right") completed += 1;
  }
  EXPECT_GT(x_events, 0u);
  EXPECT_EQ(x_events, obs.trace.event_count());
  EXPECT_EQ(completed, stats.tasks_executed);
  EXPECT_EQ(side_probes[0], stats.line_probes[0]);
  EXPECT_EQ(side_probes[1], stats.line_probes[1]);
  EXPECT_LE(queue_probes, stats.queue_probes);
}

// Runs the tourney workload with an Observability attached and checks its
// trace against the run's merged statistics.
void run_and_check(ExecutionMode mode) {
  const workloads::Workload w = workloads::tourney();
  const auto program = ops5::Program::from_source(w.source);

  Observability obs;
  EngineConfig config;
  config.mode = mode;
  config.options.match_processes = 4;
  config.options.task_queues = 2;
  config.options.lock_scheme = match::LockScheme::Mrsw;
  config.options.max_cycles = 40;
  config.options.obs = &obs;

  Engine engine(program, config);
  for (const std::string& wme : w.initial_wmes) engine.make(wme);
  const RunResult result = engine.run();
  ASSERT_GT(result.stats.match.tasks_executed, 0u);
  expect_trace_matches_stats(
      obs, result.stats.match,
      mode == ExecutionMode::SimulatedMultimax ? "virtual" : "wall");
}

TEST(TraceEngineTest, ThreadedEngineMatchesStats) {
  run_and_check(ExecutionMode::ParallelThreads);
}

TEST(TraceEngineTest, SimulatedEngineMatchesStats) {
  run_and_check(ExecutionMode::SimulatedMultimax);
}

// The control thread runs tasks while it waits for quiescence, and records
// them on its own stream 0 (a stream shared with a worker would race).
TEST(TraceEngineTest, ThreadedControlTasksLandOnStreamZero) {
  const workloads::Workload w = workloads::rubik(6);
  const auto program = ops5::Program::from_source(w.source);

  Observability obs;
  EngineOptions opt;
  opt.match_processes = 3;
  opt.obs = &obs;
  ParallelEngine engine(program, opt);
  workloads::load(engine, w);
  const RunResult result = engine.run();
  expect_trace_matches_stats(obs, result.stats.match, "wall");

  std::ostringstream os;
  obs.trace.write_json(os);
  Json parsed;
  std::string error;
  ASSERT_TRUE(json_parse(os.str(), &parsed, &error)) << error;
  std::uint64_t control_tasks = 0;
  for (const Json& ev : parsed.at("traceEvents").as_array())
    if (ev.at("ph").as_string() == "X" && ev.at("tid").as_uint() == 0)
      control_tasks += 1;
  EXPECT_GT(control_tasks, 0u);
}

// Threaded world batches run on the same worker pool, so they get the same
// per-task trace: one stream per match process, every world's tasks.
TEST(TraceEngineTest, ThreadedWorldBatchMatchesStats) {
  const workloads::Workload w = workloads::rubik(6);
  const auto program = ops5::Program::from_source(w.source);

  Observability obs;
  EngineOptions opt;
  opt.worlds = 4;
  opt.hash_buckets = 64;
  opt.match_processes = 3;
  opt.lock_scheme = match::LockScheme::Mrsw;
  opt.obs = &obs;
  world::BatchEngine batch(program, opt);
  for (std::uint32_t i = 0; i < batch.num_worlds(); ++i) {
    for (const std::string& wme : w.initial_wmes) batch.make(i, wme);
    batch.set_max_cycles(i, 10);
  }
  batch.run_all();
  ASSERT_GT(batch.match_stats().tasks_executed, 0u);
  expect_trace_matches_stats(obs, batch.match_stats(), "wall");
}

}  // namespace
}  // namespace psme::obs
