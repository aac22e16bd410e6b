// Lock-discipline comparison: the 1988 lock study at modern scale.
//
// The paper weighed exclusive hash-line spin locks against
// multiple-reader-single-writer locks (Tables 4-8/4-9). This bench sweeps
// both disciplines:
//
//   1. the Multimax simulator on the three paper programs plus an
//      adversarial hot-line workload, 1..16 match processes, where the
//      deterministic cost model exposes the crossover (these rows carry
//      `ns_per_task` and feed the committed BENCH_locks_seed.json gate);
//   2. the real threaded engine end to end on the hot-line workload,
//      firing traces cross-checked against the sequential engine
//      (informational — wall-clock rows are host-dependent and carry
//      `match_ms` so the regression gate skips them).
//
// The hot-line workload is the Tourney pathology distilled: one production
// whose two condition elements share no variables, so the compiled join
// key is empty and every alpha/beta token lands on ONE hash line. MRSW
// thrashes there (every insert is a writer; opposite-side conflicts
// requeue).
//
// Shape check (enforced, exit 1): MRSW buys concurrency with
// per-activation protocol. At 1 worker, where no line is ever contended,
// that protocol (the flag/counter handshake and the modification lock) is
// pure overhead, so the simulator must charge MRSW more per task than
// Simple on Weaver, Rubik and Tourney.
//
// Flags: --fast (reduced scale, same as PSME_BENCH_FAST=1) and
// --json FILE (psme.bench.v1 rows; BENCH_locks_seed.json is the committed
// fast-mode baseline).
#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

// See the file header: empty join keys aim every token at one line.
ProgramSpec hotline(bool fast) {
  const int n = fast ? 12 : 24;
  workloads::Workload w;
  w.name = "hotline";
  w.source = R"(
(literalize alpha id)
(literalize beta id)
(literalize gamma l r)

(p cross
  (alpha ^id <x>)
  (beta ^id <y>)
  -->
  (make gamma ^l <x> ^r <y>))
)";
  for (int i = 0; i < n; ++i) {
    w.initial_wmes.push_back("(alpha ^id " + std::to_string(i) + ")");
    w.initial_wmes.push_back("(beta ^id " + std::to_string(i) + ")");
  }
  return {"Hotline", w};
}

// bench_common::run_sim with a cycle cap: the hot-line contention is all
// in the initial insert wave, so a few firings suffice.
SimOutcome run_sim_capped(const ProgramSpec& spec, int procs,
                          match::LockScheme scheme,
                          std::uint64_t max_cycles) {
  auto program = ops5::Program::from_source(spec.workload.source);
  EngineOptions opt;
  opt.match_processes = procs;
  opt.task_queues = procs > 1 ? procs : 1;
  opt.lock_scheme = scheme;
  opt.max_cycles = max_cycles;
  sim::SimConfig cfg;
  cfg.pipeline = true;
  sim::SimEngine eng(program, opt, cfg);
  workloads::load(eng, spec.workload);
  eng.run();
  return {eng.sim_match_seconds(), eng.sim_total_seconds(),
          eng.match_stats()};
}

double ns_per_task(const SimOutcome& o) {
  return o.stats.tasks_executed == 0
             ? 0.0
             : o.match_seconds * 1e9 /
                   static_cast<double>(o.stats.tasks_executed);
}

struct SchemeSpec {
  const char* label;
  match::LockScheme scheme;
};

constexpr SchemeSpec kSchemes[] = {
    {"simple", match::LockScheme::Simple},
    {"mrsw", match::LockScheme::Mrsw},
};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) setenv("PSME_BENCH_FAST", "1", 1);
  }
  BenchJson json("lock_compare", argc, argv);
  json.stamp("schemes", obs::Json("simple,mrsw"));
  const bool fast = fast_mode();

  print_header("Lock comparison: simple vs MRSW hash lines",
               "Tables 4-8/4-9 lock study");

  // --- 1. simulator sweep --------------------------------------------------
  // Virtual ns per executed task: lower is better, and deterministic — the
  // cost model charges each discipline its own protocol (flag/counter
  // handshake, modification lock and requeued re-scans for MRSW).
  const std::uint64_t kHotlineCycles = 10;
  std::vector<ProgramSpec> specs = paper_programs();
  specs.push_back(hotline(fast));
  const int workers_list[] = {1, 2, 4, 8, 16};

  std::printf("[sim] virtual ns/task (MRSW requeues in brackets)\n\n");
  // Recorded for the shape check below: per paper program, 1-worker
  // ns/task as {simple, mrsw}.
  std::vector<std::pair<std::string, std::array<double, 2>>> one_worker;
  for (const ProgramSpec& ps : specs) {
    const bool hot = ps.label == "Hotline";
    const std::uint64_t cycles = hot ? kHotlineCycles : 10'000'000;
    std::printf("%-10s %7s | %14s %22s\n", ps.label.c_str(), "procs",
                "simple", "mrsw");
    for (const int p : workers_list) {
      std::array<double, 2> ns = {0, 0};
      std::uint64_t requeues = 0;
      for (int s = 0; s < 2; ++s) {
        const SimOutcome o =
            run_sim_capped(ps, p, kSchemes[s].scheme, cycles);
        ns[s] = ns_per_task(o);
        if (kSchemes[s].scheme == match::LockScheme::Mrsw)
          requeues = o.stats.requeues;
        obs::JsonObject row;
        row.emplace_back("section", obs::Json("sim"));
        row.emplace_back("workload", obs::Json(ps.label));
        row.emplace_back("scheme", obs::Json(kSchemes[s].label));
        row.emplace_back("workers", obs::Json(static_cast<double>(p)));
        row.emplace_back("ns_per_task", obs::Json(ns[s]));
        row.emplace_back("requeues",
                         obs::Json(static_cast<double>(o.stats.requeues)));
        json.add(obs::Json(std::move(row)));
      }
      std::printf("%-10s %7d | %14.1f %14.1f [%5llu]\n", "", p, ns[0],
                  ns[1], static_cast<unsigned long long>(requeues));
      if (!hot && p == 1) one_worker.emplace_back(ps.label, ns);
    }
    std::printf("\n");
  }

  // --- 2. threaded engine end to end ---------------------------------------
  std::printf("[threads] hot-line workload end to end, firing traces "
              "checked (informational)\n\n");
  const ProgramSpec hot = hotline(fast);
  auto program = ops5::Program::from_source(hot.workload.source);
  EngineOptions seq_opt;
  seq_opt.max_cycles = kHotlineCycles;
  SequentialEngine seq(program, seq_opt);
  workloads::load(seq, hot.workload);
  seq.run();

  std::printf("%-12s %12s %12s %8s\n", "scheme", "match ms", "requeues",
              "trace");
  for (const SchemeSpec& ss : kSchemes) {
    EngineOptions opt;
    opt.match_processes = 4;
    opt.task_queues = 2;
    opt.lock_scheme = ss.scheme;
    opt.max_cycles = kHotlineCycles;
    ParallelEngine eng(program, opt);
    workloads::load(eng, hot.workload);
    const RunResult r = eng.run();
    const bool trace_ok = eng.trace() == seq.trace();
    std::printf("%-12s %12.3f %12llu %8s\n", ss.label,
                r.stats.match_seconds * 1e3,
                static_cast<unsigned long long>(r.stats.match.requeues),
                trace_ok ? "ok" : "DIVERGED");
    if (!trace_ok) return 1;
    obs::JsonObject row;
    row.emplace_back("section", obs::Json("threads"));
    row.emplace_back("workload", obs::Json(hot.label));
    row.emplace_back("scheme", obs::Json(ss.label));
    row.emplace_back("match_ms", obs::Json(r.stats.match_seconds * 1e3));
    json.add(obs::Json(std::move(row)));
  }

  // --- 3. shape checks -----------------------------------------------------
  std::printf("\nShape checks:\n");
  bool ok = true;
  for (const auto& [label, ns] : one_worker) {
    const bool cond = ns[1] > ns[0];
    std::printf("  %-10s 1 worker: mrsw costs more per task than simple "
                "(%.0f vs %.0f ns)   %s\n",
                label.c_str(), ns[1], ns[0], cond ? "ok" : "FAIL");
    ok &= cond;
  }
  return ok ? 0 : 1;
}
