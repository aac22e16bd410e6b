// psme_wallbench: wall-clock benchmark of PSM-E on the host it runs on.
//
// Usage:
//   psme_wallbench --workload {weaver|rubik|tourney}
//                  --seed N --seconds S --trace {0|1}
//
// A run builds its inputs from --seed and sets up (input generation, parse,
// Rete compile, a reference sequential run), then spends --seconds in timed
// phases on that one program, interleaved in half-second rounds that each
// also repeat the set-up:
//
//   compile  parse + Rete/bytecode build + RHS compile (engine construction)
//   seq      whole runs on the sequential vs2 engine
//   threads  whole runs on the threaded engine (control + up to 3 match
//            threads)
//   serve    a closed-loop fleet of sessions on a serve::Server, shaped like
//            the documented load generator (docs/serving.md): about 100
//            sessions per 8 workers, working memory loaded with `make`,
//            then 4 `run 25` slices per session
//   shard    (--trace 1 only) whole runs on a 2-shard in-process ShardGroup
//
// The reference run must reproduce figures fixed per workload (cycles,
// final working-memory size, firings per production), and every other
// run's firing trace must equal the reference's, so a faster but wrong
// engine fails the benchmark. --trace 0 reports the end-to-end
// metrics with no instrumentation attached; --trace 1 repeats the phases
// with spans around each layer call and the observability registry
// attached, and reports per-layer numbers. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/symbol_table.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "obs/observability.hpp"
#include "ops5/program.hpp"
#include "rete/builder.hpp"
#include "serve/server.hpp"
#include "shard/shard_group.hpp"
#include "workloads/workloads.hpp"

using namespace psme;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linearly interpolated quantile of `v`, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Calls fn() until `budget` seconds have passed and at least `min_iters`
// times.
template <typename Fn>
void repeat_for(double budget, std::size_t min_iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < min_iters || seconds_since(t0) < budget; ++i)
    fn();
}

// --- inputs -----------------------------------------------------------------

// Workload scales: one sequential run takes a few milliseconds, so every
// phase collects hundreds of runs in a few seconds.
constexpr int kWeaverRegions = 16;
constexpr int kRubikMoves = 24;
constexpr int kTourneyTeams = 10;

// What the reference run of a workload must reproduce at the scales above,
// whatever the seed: the `stats` reply after the run, the production it
// ends on (for weaver the last region tally: at this scale some nets cannot
// route, so it stops on an empty conflict set), and the FNV-1a hash of its
// firings per production (see firing_counts).
struct Expected {
  const char* stats;
  const char* last_rule;
  std::uint64_t counts_hash;
};

struct Input {
  workloads::Workload workload;
  Expected expected;
  // Weaver: the region each region was relabeled from (see make_input).
  std::vector<int> original_region;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.below(i))]);
}

// Rewrites the integer after `key` (e.g. "^region ") through `map`.
std::string remap_int(const std::string& lit, const std::string& key,
                      const std::vector<int>& map) {
  const std::size_t at = lit.find(key);
  if (at == std::string::npos) return lit;
  const std::size_t begin = at + key.size();
  std::size_t end = begin;
  while (end < lit.size() && lit[end] >= '0' && lit[end] <= '9') ++end;
  const int old = std::stoi(lit.substr(begin, end - begin));
  return lit.substr(0, begin) +
         std::to_string(map.at(static_cast<std::size_t>(old))) +
         lit.substr(end);
}

std::vector<int> permutation(int n, Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  shuffle(p, rng);
  return p;
}

// The seed varies what the program works on without changing how much work
// there is, so runs with different seeds stay comparable: weaver's nets move
// to other regions, rubik's cube gets its colors permuted (a new scramble
// would change how many background patterns match), tourney's teams get
// new seedings. Rubik's and tourney's initial working memory is
// then shuffled, which reassigns timetags and so the firing order. Weaver's
// is not: its nets route greedily in timetag order, so the order decides
// which nets get blocked and how much routing a run does.
Input make_input(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  Input in;
  if (name == "weaver") {
    in.workload = workloads::weaver(kWeaverRegions, 2);
    const std::vector<int> region = permutation(kWeaverRegions, rng);
    for (std::string& lit : in.workload.initial_wmes)
      lit = remap_int(lit, "^region ", region);
    in.original_region.resize(region.size());
    for (std::size_t r = 0; r < region.size(); ++r)
      in.original_region[static_cast<std::size_t>(region[r])] =
          static_cast<int>(r);
    in.expected = {"cycles=319 firings=319 wm=343", "tally-region",
                   0xdbe451cf313843bcull};
    return in;
  }
  if (name == "rubik") {
    in.workload = workloads::rubik(kRubikMoves);
    static const std::string kColors[] = {"white",  "yellow", "green",
                                          "blue",   "orange", "red"};
    const std::vector<int> color = permutation(6, rng);
    for (std::string& lit : in.workload.initial_wmes) {
      const std::size_t at = lit.find("^color ");
      if (at == std::string::npos) continue;
      const std::size_t begin = at + 7;
      const std::size_t end = lit.find(')', begin);
      const auto* it = std::find(std::begin(kColors), std::end(kColors),
                                 lit.substr(begin, end - begin));
      if (it == std::end(kColors))
        throw std::runtime_error("rubik: unknown color in " + lit);
      lit = lit.substr(0, begin) +
            kColors[color[static_cast<std::size_t>(it - kColors)]] +
            lit.substr(end);
    }
    in.expected = {"cycles=26 firings=26 wm=80", "check-ok",
                   0x00efda0a91717768ull};
  } else if (name == "tourney") {
    in.workload = workloads::tourney(kTourneyTeams, false);
    const std::vector<int> seeding = permutation(kTourneyTeams, rng);
    for (std::string& lit : in.workload.initial_wmes)
      if (lit.starts_with("(team ")) lit = remap_int(lit, "^seed ", seeding);
    in.expected = {"cycles=275 firings=275 wm=33", "finish",
                   0xfaffb4907322bc2cull};
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  shuffle(in.workload.initial_wmes, rng);
  return in;
}

// --- set-up -----------------------------------------------------------------

struct Setup {
  explicit Setup(Input in)
      : input(std::move(in)),
        program(ops5::Program::from_source(input.workload.source)) {}

  Input input;
  ops5::Program program;
  std::vector<FiringRecord> reference;  // the sequential run's firings
  std::string served_trace;  // `trace` reply after the served slices
};

// Served sessions: each loads the working memory, then advances the run in
// kServeSlices slices of kServeSliceCycles cycles (serve::LoadGenConfig's
// run_slices and run_cycles).
constexpr std::size_t kServeSlices = 4;
constexpr int kServeSliceCycles = 25;
const std::string kServeRun = "run " + std::to_string(kServeSliceCycles);

// "name:count,..." over the productions, sorted by name. Weaver's
// per-region productions ("start-net-r3") are named by the region they were
// relabeled from, which makes the counts independent of the seed.
std::string firing_counts(const Setup& s) {
  const auto& prods = s.program.productions();
  std::vector<std::uint64_t> n(prods.size());
  for (const FiringRecord& f : s.reference) ++n[f.prod_index];
  std::vector<std::string> entries;
  for (std::size_t p = 0; p < n.size(); ++p) {
    std::string name = symbol_name(prods[p].name);
    const std::size_t at = name.rfind("-r");
    if (!s.input.original_region.empty() && at != std::string::npos &&
        at + 2 < name.size() &&
        name.find_first_not_of("0123456789", at + 2) == std::string::npos)
      name = name.substr(0, at + 2) +
             std::to_string(s.input.original_region.at(
                 std::stoul(name.substr(at + 2))));
    entries.push_back(name + ":" + std::to_string(n[p]) + ",");
  }
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const std::string& e : entries) out += e;
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

std::unique_ptr<Setup> set_up(const std::string& workload,
                              std::uint64_t seed) {
  auto s = std::make_unique<Setup>(make_input(workload, seed));
  serve::Session ref(s->program, EngineConfig{});
  for (const std::string& lit : s->input.workload.initial_wmes)
    if (!ref.execute("make " + lit).ok)
      throw std::runtime_error("reference: cannot make " + lit);
  for (std::size_t i = 0; i < kServeSlices; ++i) ref.execute(kServeRun);
  s->served_trace = ref.execute("trace").text;
  const serve::Response run = ref.execute("run");
  if (!run.ok || run.text.find("reason=max-cycles") != std::string::npos)
    throw std::runtime_error("reference run did not stop: " + run.text);
  s->reference = ref.trace();

  const Expected& want = s->input.expected;
  const std::string stats = ref.execute("stats").text;
  const std::string counts = firing_counts(*s);
  const std::string last =
      s->reference.empty()
          ? ""
          : symbol_name(
                s->program.productions()[s->reference.back().prod_index].name);
  if (stats != want.stats || last != want.last_rule ||
      fnv1a(counts) != want.counts_hash) {
    std::fprintf(stderr, "wallbench: reference run: %s, last %s, counts %s "
                 "(hash 0x%016llx)\n", stats.c_str(), last.c_str(),
                 counts.c_str(),
                 static_cast<unsigned long long>(fnv1a(counts)));
    throw std::runtime_error("reference run differs from the figures fixed "
                             "for " + workload);
  }
  return s;
}

// --- engines with spans around the layer calls (--trace 1) ------------------

// Sequential engine timing its match phase: submit_change runs the match to
// fixpoint inline, so its self time is match time; the rest of run() is
// conflict resolution and RHS evaluation.
class SpannedSequential : public SequentialEngine {
 public:
  using SequentialEngine::SequentialEngine;
  double match_s = 0;

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override {
    const auto t0 = Clock::now();
    SequentialEngine::submit_change(wme, sign);
    match_s += seconds_since(t0);
  }
};

// Threaded engine timing how long the control thread waits for each match
// phase to quiesce.
class SpannedParallel : public ParallelEngine {
 public:
  using ParallelEngine::ParallelEngine;
  double quiesce_s = 0;

 protected:
  void wait_quiescent() override {
    const auto t0 = Clock::now();
    ParallelEngine::wait_quiescent();
    quiesce_s += seconds_since(t0);
  }
};

// --- phases -----------------------------------------------------------------

struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Match processes of the threaded engine: the paper's "1+k" with k = 3
// where the host has four hardware threads, fewer on smaller hosts.
int match_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 1, 3);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Serving, shaped like the documented load generator (docs/serving.md,
// serve::LoadGenConfig): a closed-loop fleet with no think time and about
// 100 sessions per 8 workers, the workers scaled to the host. Each client
// opens a session, loads the working memory with `make` (not part of the
// latency or throughput figures, as in the load generator's warm-up), sends
// the run slices, and its `trace` must then equal the reference script's.
// The load generator draws sessions from an even weaver/rubik/tourney mix;
// here each workload serves its own share of that mix. Latency is timed on
// the client side per request, not read from the log2 latency histogram.
struct ServeSamples {
  std::vector<double> slice_s, load_s, trace_s;
  std::vector<double> fleet_p95_s;  // each fleet's 95th percentile slice
  double wall_s = 0;  // the slices' wall time, summed over fleets
};

constexpr double kSessionsPerWorker = 100.0 / 8;

int serve_workers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 8);
}

// Runs whole fleets until `budget` seconds have passed, at least one.
ServeSamples serve_phase(const Setup& s, double budget, Tally& tally) {
  const int workers = serve_workers();
  const auto sessions = static_cast<std::size_t>(
      std::lround(kSessionsPerWorker * workers));
  serve::Server server({.workers = workers, .queue_capacity = 4096});

  // Runs one step on every session, one client thread each.
  auto on_each = [&](auto&& step) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < sessions; ++c)
      clients.emplace_back([&step, c] { step(c); });
    for (std::thread& t : clients) t.join();
  };

  ServeSamples all;
  repeat_for(budget, 1, [&] {
    std::vector<serve::SessionId> ids;
    for (std::size_t c = 0; c < sessions; ++c)
      ids.push_back(server.open_session(s.program, EngineConfig{}));
    // Client c writes only its own entries.
    std::vector<double> load(sessions), trace(sessions),
        slices(sessions * kServeSlices);
    on_each([&](std::size_t c) {
      const auto t0 = Clock::now();
      bool ok = true;
      for (const std::string& lit : s.input.workload.initial_wmes)
        ok = server.call(ids[c], "make " + lit).ok && ok;
      load[c] = seconds_since(t0);
      tally.check(ok);
    });
    const auto t0 = Clock::now();
    on_each([&](std::size_t c) {
      for (std::size_t i = 0; i < kServeSlices; ++i) {
        const auto start = Clock::now();
        const serve::Response r = server.call(ids[c], kServeRun);
        slices[c * kServeSlices + i] = seconds_since(start);
        tally.check(r.ok);
      }
    });
    all.wall_s += seconds_since(t0);
    on_each([&](std::size_t c) {
      const auto start = Clock::now();
      const serve::Response r = server.call(ids[c], "trace");
      trace[c] = seconds_since(start);
      tally.check(r.ok && r.text == s.served_trace);
    });
    for (const serve::SessionId id : ids) server.close_session(id);
    all.fleet_p95_s.push_back(quantile(slices, 0.95));
    append(all.slice_s, slices);
    append(all.load_s, load);
    append(all.trace_s, trace);
  });
  server.drain();
  return all;
}

constexpr std::size_t kMinIters = 5;

// End-to-end phases run interleaved in rounds of about kRoundSeconds (a
// served fleet can make a round longer) until --seconds have passed, so
// every metric samples the host over the whole run: on a shared host the
// speed drifts over seconds, and back-to-back phases would each see a
// different slice of that drift.
constexpr double kRoundSeconds = 0.5;

std::vector<Metric> end_to_end(const Setup& s, const std::string& workload,
                               std::uint64_t seed, double seconds,
                               std::vector<double> setup, Tally& tally) {
  const EngineOptions opt{};
  EngineOptions popt = opt;
  popt.match_processes = match_threads();
  const std::size_t productions = s.program.productions().size();
  const double round_s = std::min(kRoundSeconds, seconds / 3);

  std::vector<double> compile, seq, threads;
  ServeSamples serve;
  std::uint64_t cycles = 0;
  const auto start = Clock::now();
  int rounds = 0;
  for (; rounds < 3 || seconds_since(start) < seconds; ++rounds) {
    const auto t0 = Clock::now();
    set_up(workload, seed);
    setup.push_back(seconds_since(t0));

    repeat_for(0.1 * round_s, 1, [&] {
      const auto t0 = Clock::now();
      const ops5::Program program =
          ops5::Program::from_source(s.input.workload.source);
      SequentialEngine engine(program, opt);
      compile.push_back(seconds_since(t0));
      tally.check(program.productions().size() == productions);
    });

    repeat_for(0.25 * round_s, 1, [&] {
      SequentialEngine engine(s.program, opt);
      workloads::load(engine, s.input.workload);
      const auto t0 = Clock::now();
      const RunResult r = engine.run();
      seq.push_back(seconds_since(t0));
      cycles = r.stats.cycles;
      tally.check(engine.trace() == s.reference);
    });

    repeat_for(0.25 * round_s, 1, [&] {
      ParallelEngine engine(s.program, popt);
      workloads::load(engine, s.input.workload);
      const auto t0 = Clock::now();
      engine.run();
      threads.push_back(seconds_since(t0));
      tally.check(engine.trace() == s.reference);
    });

    const ServeSamples r = serve_phase(s, 0.4 * round_s, tally);
    append(serve.slice_s, r.slice_s);
    append(serve.fleet_p95_s, r.fleet_p95_s);
    serve.wall_s += r.wall_s;
  }

  std::fprintf(stderr, "wallbench: %d rounds: %zu compiles, %zu seq runs "
               "(%llu cycles), %zu threaded runs (1+%d), %zu served slices "
               "(%ld sessions on %d workers per fleet)\n",
               rounds, compile.size(), seq.size(),
               static_cast<unsigned long long>(cycles), threads.size(),
               popt.match_processes, serve.slice_s.size(),
               std::lround(kSessionsPerWorker * serve_workers()),
               serve_workers());
  // Single-threaded engine code runs at two speeds on a shared host (about
  // 1.5x apart, each lasting seconds), so the median of set-up, compile and
  // sequential run times jumps between them from run to run. Their 10th
  // percentile, the host's fast state, is what stays comparable; the 90th
  // percentile keeps the slow state in view.
  //
  // The serving tail is each fleet's 95th percentile, the highest with at
  // least 10 of a fleet's 200 slices (at 4 workers) beyond it, and its
  // median over fleets: a tail pooled over the whole run moves with the
  // few fleets a host stall hits.
  const double seq_p10 = quantile(seq, 0.1);
  const double threads_p10 = quantile(threads, 0.1);
  return {
      {"setup_s", quantile(setup, 0.1), "s"},
      {"compile_p10_ms", 1e3 * quantile(compile, 0.1), "ms"},
      {"seq_run_p10_ms", 1e3 * seq_p10, "ms"},
      {"seq_run_p90_ms", 1e3 * quantile(seq, 0.9), "ms"},
      {"threads_run_ms", 1e3 * median(threads), "ms"},
      {"threads_run_p90_ms", 1e3 * quantile(threads, 0.9), "ms"},
      {"threads_speedup", seq_p10 / threads_p10, "ratio"},
      {"serve_p50_ms", 1e3 * median(serve.slice_s), "ms"},
      {"serve_p95_ms", 1e3 * median(serve.fleet_p95_s), "ms"},
      {"serve_rps", static_cast<double>(serve.slice_s.size()) / serve.wall_s,
       "1/s"},
  };
}

std::vector<Metric> per_layer(const Setup& s, double seconds, Tally& tally) {
  const EngineOptions opt{};
  std::vector<Metric> out;

  // Compile layers: parse + semantic analysis, Rete + bytecode build, and
  // the whole engine construction (Rete build, RHS compile, hash tables).
  std::vector<double> parse, rete, engine_build;
  repeat_for(0.1 * seconds, kMinIters, [&] {
    auto t0 = Clock::now();
    const ops5::Program program =
        ops5::Program::from_source(s.input.workload.source);
    parse.push_back(seconds_since(t0));
    t0 = Clock::now();
    const auto network = rete::build_network(program);
    rete.push_back(seconds_since(t0));
    t0 = Clock::now();
    SequentialEngine engine(program, opt);
    engine_build.push_back(seconds_since(t0));
    tally.check(network != nullptr);
  });
  out.push_back({"parse_ms", 1e3 * median(parse), "ms"});
  out.push_back({"rete_build_ms", 1e3 * median(rete), "ms"});
  out.push_back({"engine_build_ms", 1e3 * median(engine_build), "ms"});

  // Sequential match vs control (conflict resolution + RHS).
  std::vector<double> seq_run, seq_match;
  MatchStats m;
  std::uint64_t cycles = 0;
  repeat_for(0.2 * seconds, kMinIters, [&] {
    SpannedSequential engine(s.program, opt);
    workloads::load(engine, s.input.workload);
    const auto t0 = Clock::now();
    const RunResult r = engine.run();
    seq_run.push_back(seconds_since(t0));
    seq_match.push_back(engine.match_s);
    m = r.stats.match;
    cycles = r.stats.cycles;
    tally.check(engine.trace() == s.reference);
  });
  std::vector<double> seq_act(seq_run.size());
  for (std::size_t i = 0; i < seq_run.size(); ++i)
    seq_act[i] = seq_run[i] - seq_match[i];
  auto count = [&out](const char* name, std::uint64_t v) {
    out.push_back({name, static_cast<double>(v), "count"});
  };
  out.push_back({"seq_traced_run_ms", 1e3 * median(seq_run), "ms"});
  out.push_back({"seq_match_ms", 1e3 * median(seq_match), "ms"});
  out.push_back({"seq_act_ms", 1e3 * median(seq_act), "ms"});
  count("cycles", cycles);
  count("wme_changes", m.wme_changes);
  count("node_activations", m.node_activations);
  count("tasks_executed", m.tasks_executed);
  count("emissions", m.emissions);
  count("line_collisions", m.line_collisions);
  count("vm_loads", m.vm_loads);
  count("vm_tests", m.vm_tests);
  count("vm_branches", m.vm_branches);
  out.push_back({"opp_examined_mean_left", m.mean_opp_examined(Side::Left),
                 "tokens"});
  out.push_back({"opp_examined_mean_right", m.mean_opp_examined(Side::Right),
                 "tokens"});

  // Threaded engine with the observability registry and task trace on.
  EngineOptions popt = opt;
  popt.match_processes = match_threads();
  std::vector<double> thr_run, thr_match, thr_quiesce;
  MatchStats pm;
  std::size_t events = 0;
  repeat_for(0.2 * seconds, kMinIters, [&] {
    obs::Observability observer;
    EngineOptions o = popt;
    o.obs = &observer;
    SpannedParallel engine(s.program, o);
    workloads::load(engine, s.input.workload);
    const auto t0 = Clock::now();
    const RunResult r = engine.run();
    thr_run.push_back(seconds_since(t0));
    thr_match.push_back(r.stats.match_seconds);
    thr_quiesce.push_back(engine.quiesce_s);
    pm = r.stats.match;
    events = observer.trace.event_count();
    tally.check(engine.trace() == s.reference);
  });
  out.push_back({"threads_traced_run_ms", 1e3 * median(thr_run), "ms"});
  out.push_back({"threads_match_ms", 1e3 * median(thr_match), "ms"});
  out.push_back({"threads_quiesce_ms", 1e3 * median(thr_quiesce), "ms"});
  out.push_back({"queue_probes_per_acq", pm.queue_contention(), "ratio"});
  out.push_back({"line_probes_per_acq_left", pm.line_contention(Side::Left),
                 "ratio"});
  out.push_back({"line_probes_per_acq_right",
                 pm.line_contention(Side::Right), "ratio"});
  count("requeues", pm.requeues);
  count("trace_events", events);

  // Serving: per-command latency, client side.
  const ServeSamples serve = serve_phase(s, 0.3 * seconds, tally);
  out.push_back({"serve_slice_ms", 1e3 * median(serve.slice_s), "ms"});
  out.push_back({"serve_load_ms", 1e3 * median(serve.load_s), "ms"});
  out.push_back({"serve_trace_ms", 1e3 * median(serve.trace_s), "ms"});
  count("serve_requests",
        serve.slice_s.size() +
            serve.load_s.size() * s.input.workload.initial_wmes.size() +
            serve.trace_s.size());

  // Shard interconnect: one session on a 2-shard in-process group.
  std::vector<double> shard_run;
  shard::GroupStats gs;
  repeat_for(0.2 * seconds, kMinIters, [&] {
    shard::ShardGroupConfig cfg;
    cfg.shards = 2;
    shard::ShardGroup group(s.program, opt, cfg);
    for (const std::string& lit : s.input.workload.initial_wmes)
      group.make(0, lit);
    const auto t0 = Clock::now();
    group.run_all();
    shard_run.push_back(seconds_since(t0));
    gs = group.group_stats();
    tally.check(group.trace(0) == s.reference);
  });
  out.push_back({"shard_run_ms", 1e3 * median(shard_run), "ms"});
  count("shard_batches", gs.batches);
  count("shard_frames", gs.frames);
  count("shard_bytes", gs.bytes_sent + gs.bytes_received);
  count("shard_forwards", gs.forwards);
  count("shard_tasks", gs.tasks);
  return out;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: psme_wallbench --workload "
               "{weaver|rubik|tourney} --seed N --seconds S "
               "--trace {0|1}\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") workload = value;
    else if (arg == "--seed") seed = std::stoull(value);
    else if (arg == "--seconds") seconds = std::stod(value);
    else if (arg == "--trace") trace = std::stoi(value);
    else usage(("unknown option " + arg).c_str());
  }
  if (workload.empty()) usage("--workload is required");
  if (!(seconds > 0)) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");

  try {
    // Set-up is timed as a whole; end_to_end repeats it once per round.
    const auto t0 = Clock::now();
    const std::unique_ptr<Setup> setup = set_up(workload, seed);
    const double setup_s = seconds_since(t0);

    Tally tally;
    const std::vector<Metric> metrics =
        trace == 0
            ? end_to_end(*setup, workload, seed, seconds, {setup_s}, tally)
            : per_layer(*setup, seconds, tally);

    const std::uint64_t failed = tally.failed.load();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted.load()),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
