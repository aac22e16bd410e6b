// Google-benchmark micro-benchmarks for the match path itself: wme-change
// throughput per engine flavour, and hash vs list memory probing.
//
// Invoked with --sweep it instead runs the token-depth sweep — a plain
// harness (no google-benchmark) timing the threaded engine on chain-join
// programs whose tokens grow to the requested depth. `--sweep --json FILE`
// writes psme.bench.v1 rows; BENCH_kernel_seed.json at the repo root is
// the committed fast-mode baseline (RelWithDebInfo, the threaded engine at
// its default table size); CI diffs against it via
// tools/check_bench_regression.py.
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_common.hpp"
#include "common/symbol_table.hpp"
#include "engine/lisp_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "workloads/workloads.hpp"

namespace psme {
namespace {

// Cost of one full recognize-act run of a small Rubik script, per engine.
template <typename EngineT>
void run_rubik_once(benchmark::State& state, EngineOptions opt) {
  const auto w = workloads::rubik(6);
  auto program = ops5::Program::from_source(w.source);
  std::uint64_t activations = 0;
  for (auto _ : state) {
    EngineT eng(program, opt);
    workloads::load(eng, w);
    const RunResult r = eng.run();
    activations = r.stats.match.node_activations;
    benchmark::DoNotOptimize(r.stats.firings);
  }
  state.counters["activations"] = static_cast<double>(activations);
}

void BM_MatchVs2Hash(benchmark::State& state) {
  run_rubik_once<SequentialEngine>(state, {});
}
BENCHMARK(BM_MatchVs2Hash);

void BM_MatchVs1List(benchmark::State& state) {
  EngineOptions opt;
  opt.memory = match::MemoryStrategy::List;
  run_rubik_once<SequentialEngine>(state, opt);
}
BENCHMARK(BM_MatchVs1List);

void BM_MatchLispStyle(benchmark::State& state) {
  run_rubik_once<LispStyleEngine>(state, {});
}
BENCHMARK(BM_MatchLispStyle);

// Join probing against a memory of N tokens: hash memories touch one
// bucket, list memories scan everything.
void BM_ProbeCost(benchmark::State& state) {
  const bool hash = state.range(0) != 0;
  const int population = static_cast<int>(state.range(1));
  const auto src = R"(
(literalize a key payload)
(literalize b key)
(p join (a ^key <k>) (b ^key <k>) --> (halt))
)";
  auto program = ops5::Program::from_source(src);
  EngineOptions opt;
  opt.memory = hash ? match::MemoryStrategy::Hash
                    : match::MemoryStrategy::List;
  // One engine, pre-populated; the timed region is pure probe work:
  // repeatedly add and retract the same right-side wme (the retraction
  // searches the same memory, the addition probes the opposite one).
  SequentialEngine eng(program, opt);
  const SymbolId a_cls = intern("a");
  const SymbolId b_cls = intern("b");
  const SymbolId key = intern("key");
  for (int i = 0; i < population; ++i) {
    eng.make(a_cls, {{key, Value::integer(i)},
                     {intern("payload"), Value::integer(0)}});
  }
  eng.run();  // settle initial match
  for (auto _ : state) {
    const Wme* w = eng.make(b_cls, {{key, Value::integer(1)}});
    eng.remove(w->timetag);
    eng.run();  // processes the pending +/- pair; max_cycles not reached
    benchmark::DoNotOptimize(eng.stats().match.node_activations);
  }
  state.counters["opp/probe"] =
      eng.stats().match.mean_opp_examined(Side::Right);
}
BENCHMARK(BM_ProbeCost)
    ->ArgsProduct({{0, 1}, {64, 512}})
    ->ArgNames({"hash", "tokens"});

// --- token-depth sweep ------------------------------------------------------
//
// A chain-join program with `depth` condition elements, all bound by one
// variable: every join's equality test reads token position 0, the front of
// the token, so per-activation hashing and delete-search equality pay the
// full token-representation cost at every level. One wme per (class, key)
// keeps the joins linear (one token per key per depth).
std::string chain_source(int depth) {
  std::string src;
  for (int i = 0; i < depth; ++i)
    src += "(literalize c" + std::to_string(i) + " key tag val)\n";
  src += "(literalize dummy n)\n(p chain (c0 ^key <k> ^tag <t>)";
  for (int i = 1; i < depth; ++i)
    src += " (c" + std::to_string(i) + " ^key <k> ^tag <t>)";
  src += " --> (make dummy ^n 1))\n";
  return src;
}

struct SweepRow {
  int depth = 0;
  double ns_per_task = 0;
  std::uint64_t tasks = 0;
  double match_ms = 0;
};

// One timed pass. Setup: `dup` head wmes per key in class c0 (so every key
// carries `dup` parallel tokens through the whole chain, and every node
// memory bucket holds `dup` entries of the same (node, key)), one wme per
// key in every later class. Each timed round retracts and re-asserts one
// head wme of *every* key in a single phase: the retract tears that head's
// token down at each depth — a content-equality search among the `dup`
// same-bucket entries per level — and the re-assert re-derives it, hashing
// the token front at every level. Token-representation costs therefore
// scale with depth x dup while scheduler overhead stays constant.
SweepRow sweep_once(const ops5::Program& program, int depth, int keys,
                    int dup, int rounds, int procs) {
  EngineOptions opt;
  opt.match_processes = procs;
  opt.task_queues = 2;
  opt.scheduler = match::SchedulerKind::Steal;
  opt.max_cycles = 10'000'000;
  ParallelEngine eng(program, opt);
  const SymbolId key = intern("key");
  const SymbolId tag = intern("tag");
  const SymbolId val = intern("val");
  std::vector<std::vector<TimeTag>> head_tags(
      static_cast<std::size_t>(keys));
  for (int k = 0; k < keys; ++k) {
    for (int j = 0; j < dup; ++j)
      head_tags[static_cast<std::size_t>(k)].push_back(
          eng.make(intern("c0"), {{key, Value::integer(k)},
                                  {tag, Value::integer(k)},
                                  {val, Value::integer(j)}})
              ->timetag);
    for (int c = 1; c < depth; ++c)
      eng.make(intern("c" + std::to_string(c)),
               {{key, Value::integer(k)},
                {tag, Value::integer(k)},
                {val, Value::integer(c)}});
  }
  eng.run();  // settle: keys x dup chains derived

  const MatchStats before = eng.stats().match;
  const double ms_before = eng.stats().match_seconds;
  for (int r = 0; r < rounds; ++r) {
    const int j = r % dup;
    for (int k = 0; k < keys; ++k) {
      eng.remove(head_tags[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(j)]);
      head_tags[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          eng.make(intern("c0"), {{key, Value::integer(k)},
                                  {tag, Value::integer(k)},
                                  {val, Value::integer(j)}})
              ->timetag;
    }
    eng.run();
  }
  SweepRow row;
  row.depth = depth;
  row.tasks = eng.stats().match.tasks_executed - before.tasks_executed;
  row.match_ms = (eng.stats().match_seconds - ms_before) * 1e3;
  row.ns_per_task =
      row.tasks ? row.match_ms * 1e6 / static_cast<double>(row.tasks) : 0;
  return row;
}

int run_token_depth_sweep(int argc, char** argv) {
  bench::BenchJson json("micro_match_sweep", argc, argv);
  const bool fast = bench::fast_mode();
  const std::vector<int> depths =
      fast ? std::vector<int>{2, 4, 8, 16} : std::vector<int>{2, 4, 8, 16, 32};
  const int keys = fast ? 8 : 16;
  const int dup = fast ? 32 : 48;
  const int rounds = fast ? 24 : 64;
  const int procs = 3;
  const int reps = 3;
  json.stamp("engine", obs::Json("threads"));
  json.stamp("memory", obs::Json("hash"));
  json.stamp("scheduler", obs::Json("steal"));
  json.stamp("procs", obs::Json(static_cast<double>(procs)));
  json.stamp("keys", obs::Json(static_cast<double>(keys)));
  json.stamp("dup", obs::Json(static_cast<double>(dup)));
  json.stamp("rounds", obs::Json(static_cast<double>(rounds)));

  std::printf("token-depth sweep: threaded engine, hash backend "
              "(%d procs, %d keys x %d head wmes, %d all-key "
              "retract/assert rounds, best of %d)\n\n",
              procs, keys, dup, rounds, reps);
  std::printf("%-8s %12s %12s %12s\n", "depth", "ns/task", "tasks",
              "match ms");
  for (const int depth : depths) {
    auto program = ops5::Program::from_source(chain_source(depth));
    SweepRow best;
    for (int rep = 0; rep < reps; ++rep) {
      const SweepRow row =
          sweep_once(program, depth, keys, dup, rounds, procs);
      if (rep == 0 || row.ns_per_task < best.ns_per_task) best = row;
    }
    std::printf("%-8d %12.1f %12llu %12.2f\n", best.depth, best.ns_per_task,
                static_cast<unsigned long long>(best.tasks), best.match_ms);
    obs::JsonObject row;
    row.emplace_back("depth", obs::Json(static_cast<double>(best.depth)));
    row.emplace_back("ns_per_task", obs::Json(best.ns_per_task));
    row.emplace_back("tasks", obs::Json(static_cast<double>(best.tasks)));
    row.emplace_back("match_ms", obs::Json(best.match_ms));
    json.add(obs::Json(std::move(row)));
  }
  return 0;
}

}  // namespace
}  // namespace psme

int main(int argc, char** argv) {
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) sweep = true;
    if (std::strcmp(argv[i], "--fast") == 0) setenv("PSME_BENCH_FAST", "1", 1);
  }
  if (sweep) return psme::run_token_depth_sweep(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
