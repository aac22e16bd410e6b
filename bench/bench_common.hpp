// Shared infrastructure for the table-reproduction benches.
//
// Each bench binary regenerates one table of the paper, printing the
// paper's published numbers next to the measured ones so the *shape*
// comparison (who wins, by what factor, where it saturates) is immediate.
//
// Set PSME_BENCH_FAST=1 to run every bench at reduced scale (CI smoke).
//
// Benches that take (argc, argv) also accept `--json FILE`: every table
// row is mirrored as a JSON object (schema psme.bench.v1) so baselines can
// be diffed mechanically — BENCH_seed.json at the repo root is the
// committed fast-mode baseline.
#pragma once

// GCC 12 emits spurious -Wmaybe-uninitialized warnings through
// fully-inlined std::variant moves (gcc PR 105562); the obs::Json row
// building in the benches trips it. Bench TUs only — the library itself
// builds clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "engine/lisp_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "obs/json.hpp"
#include "sim/sim_engine.hpp"
#include "workloads/workloads.hpp"

namespace psme::bench {

inline bool fast_mode() {
  const char* v = std::getenv("PSME_BENCH_FAST");
  return v && *v && *v != '0';
}

struct ProgramSpec {
  std::string label;
  workloads::Workload workload;
};

// The three paper programs at bench scale.
inline std::vector<ProgramSpec> paper_programs() {
  const bool fast = fast_mode();
  std::vector<ProgramSpec> specs;
  specs.push_back({"Weaver", workloads::weaver(fast ? 8 : 34, 2)});
  specs.push_back({"Rubik", workloads::rubik(fast ? 8 : 40)});
  specs.push_back({"Tourney", workloads::tourney(fast ? 8 : 13, false)});
  return specs;
}

struct SeqOutcome {
  double seconds = 0;
  RunStats stats;
};

inline SeqOutcome run_sequential(const ProgramSpec& spec,
                                 match::MemoryStrategy memory) {
  auto program = ops5::Program::from_source(spec.workload.source);
  EngineOptions opt;
  opt.memory = memory;
  opt.max_cycles = 10'000'000;
  opt.hash_buckets = kSimHashBuckets;  // Tables 4-1 to 4-4's table size
  SequentialEngine eng(program, opt);
  workloads::load(eng, spec.workload);
  const RunResult r = eng.run();
  return {r.stats.match_seconds, r.stats};
}

inline SeqOutcome run_lisp(const ProgramSpec& spec) {
  auto program = ops5::Program::from_source(spec.workload.source);
  EngineOptions opt;
  opt.max_cycles = 10'000'000;
  LispStyleEngine eng(program, opt);
  workloads::load(eng, spec.workload);
  const RunResult r = eng.run();
  return {r.stats.match_seconds, r.stats};
}

struct SimOutcome {
  double match_seconds = 0;   // virtual seconds at 0.75 MIPS
  double total_seconds = 0;
  MatchStats stats;
};

inline SimOutcome run_sim(const ProgramSpec& spec, int procs, int queues,
                          match::LockScheme scheme, bool pipeline,
                          match::SchedulerKind sched =
                              match::SchedulerKind::Central) {
  auto program = ops5::Program::from_source(spec.workload.source);
  EngineOptions opt;
  opt.match_processes = procs;
  opt.task_queues = queues;
  opt.lock_scheme = scheme;
  opt.scheduler = sched;
  opt.max_cycles = 10'000'000;
  sim::SimConfig cfg;
  cfg.pipeline = pipeline;
  sim::SimEngine eng(program, opt, cfg);
  workloads::load(eng, spec.workload);
  eng.run();
  return {eng.sim_match_seconds(), eng.sim_total_seconds(),
          eng.match_stats()};
}

// The uniprocessor baseline of Tables 4-5/4-6/4-8: one match process,
// one queue, simple locks, no RHS/match overlap.
inline SimOutcome run_sim_baseline(const ProgramSpec& spec) {
  return run_sim(spec, 1, 1, match::LockScheme::Simple, /*pipeline=*/false);
}

// --- repeated trials --------------------------------------------------------

// Median of `v` (non-empty), and its median absolute deviation: the spread
// to report for host wall-clock trials, where a few slow outliers are the
// norm on a shared host.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> dev;
  for (const double x : v) dev.push_back(std::fabs(x - m));
  return median(dev);
}

// --- machine-readable results ---------------------------------------------

// Collects one JSON object per table row and writes them on destruction
// when the bench was invoked with `--json FILE`:
//
//   { "schema": "psme.bench.v1", "bench": "<name>", "fast": <bool>,
//     "build_type": "Release", "scale": "fast"|"full",
//     ..., "results": [ {"label": ..., ...}, ... ] }
//
// build_type (the CMAKE_BUILD_TYPE the binary was compiled under) and the
// workload scale are stamped automatically; benches add run-wide context
// (scheduler discipline, thread counts, ...) with stamp().
//
// Rows are recorded unconditionally (cheap) so callers don't need to
// branch on enabled(); without --json the destructor writes nothing.
class BenchJson {
 public:
  BenchJson(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < argc) {
        path_ = argv[i + 1];
        ++i;
      }
    }
  }
  ~BenchJson() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    obs::JsonObject doc;
    doc.emplace_back("schema", obs::Json("psme.bench.v1"));
    doc.emplace_back("bench", obs::Json(bench_));
    doc.emplace_back("fast", obs::Json(fast_mode()));
#ifdef PSME_BUILD_TYPE
    doc.emplace_back("build_type", obs::Json(PSME_BUILD_TYPE));
#else
    doc.emplace_back("build_type", obs::Json("unknown"));
#endif
    doc.emplace_back("scale", obs::Json(fast_mode() ? "fast" : "full"));
    for (auto& [key, value] : stamps_)
      doc.emplace_back(std::move(key), std::move(value));
    doc.emplace_back("results", obs::Json(std::move(results_)));
    out << obs::Json(std::move(doc)).dump(2) << "\n";
  }

  bool enabled() const { return !path_.empty(); }
  // Every row carries a `worlds` field so baselines compare like-with-like
  // across the multi-world change (tools/check_bench_regression.py): rows
  // that don't set one are single-world and get the default stamped in.
  void add(obs::Json row) {
    if (row.is_object()) {
      obs::JsonObject& obj = row.as_object();
      bool has = false;
      for (const auto& [k, v] : obj) has |= (k == "worlds");
      if (!has) obj.emplace_back("worlds", obs::Json(std::uint64_t{1}));
    }
    results_.push_back(std::move(row));
  }
  // Adds a run-wide header field (e.g. the scheduler discipline under
  // test); last write per key wins at output time, first-stamp order.
  void stamp(std::string key, obs::Json value) {
    for (auto& [k, v] : stamps_)
      if (k == key) {
        v = std::move(value);
        return;
      }
    stamps_.emplace_back(std::move(key), std::move(value));
  }

 private:
  std::string bench_;
  std::string path_;
  obs::JsonObject stamps_;
  obs::JsonArray results_;
};

// --- printing -------------------------------------------------------------

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(reproduces %s; paper values in parentheses)\n\n", paper_ref);
}

inline void print_row_label(const char* label) {
  std::printf("%-10s", label);
}

inline void print_cell(double measured, double paper, const char* fmt = "%6.2f") {
  char buf[64], buf2[64];
  std::snprintf(buf, sizeof(buf), fmt, measured);
  std::snprintf(buf2, sizeof(buf2), fmt, paper);
  std::printf(" %s (%s)", buf, buf2);
}

}  // namespace psme::bench
