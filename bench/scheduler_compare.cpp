// Scheduler-discipline comparison (Table 4-7 style): the paper's central
// spin-locked queues (1 queue and k queues) against the work-stealing
// deque scheduler, three ways:
//
//   1. a real-thread micro bench of the scheduler alone — enqueue +
//      dequeue overhead per task on a synthetic fan-out workload;
//   2. the real threaded engine end to end (firing traces cross-checked
//      against the sequential engine);
//   3. the Multimax simulator on the three paper programs, where the
//      deterministic cost model separates contended probes from useful
//      work.
//
// Flags: --fast (reduced scale, same as PSME_BENCH_FAST=1) and
// --json FILE (psme.bench.v1 rows; BENCH_scheduler_seed.json is the
// committed fast-mode baseline).
#include <chrono>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "match/scheduler.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

match::Task depth_task(std::uintptr_t depth) {
  match::Task t;
  t.kind = match::TaskKind::Root;
  t.sign = +1;
  t.wme = reinterpret_cast<const Wme*>(depth);
  return t;
}

struct MicroResult {
  double ns_per_task = 0;
  std::uint64_t tasks = 0;
  MatchStats stats;
};

// Fan-out workload: seed `roots` tasks of depth d at the control endpoint;
// every popped task of depth > 0 emits two tasks of depth-1 in one batch.
// Total tasks = roots * (2^(d+1) - 1). This isolates exactly what the
// engines pay the scheduler for: one pop plus one batched emission push
// per task, under real contention.
MicroResult run_micro(match::Scheduler& sched, int num_workers,
                      std::uint64_t roots, std::uintptr_t depth) {
  std::vector<MatchStats> stats(static_cast<std::size_t>(num_workers));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    threads.emplace_back([&, i] {
      MatchStats& st = stats[static_cast<std::size_t>(i)];
      const unsigned ep = static_cast<unsigned>(i);
      while (!go.load(std::memory_order_acquire)) SpinLock::cpu_relax();
      match::Task emit[2];
      while (!sched.phase_complete()) {
        match::Task t;
        if (!sched.try_pop(&t, ep, st)) {
          std::this_thread::yield();
          continue;
        }
        const std::uintptr_t d = reinterpret_cast<std::uintptr_t>(t.wme);
        if (d > 0) {
          emit[0] = depth_task(d - 1);
          emit[1] = depth_task(d - 1);
          sched.push_batch(emit, 2, ep, st);
        }
        st.tasks_executed += 1;
        sched.task_done();
      }
    });
  }

  MatchStats control_stats;
  const unsigned control = static_cast<unsigned>(num_workers);
  const auto t0 = std::chrono::steady_clock::now();
  // Seed before releasing the workers: their exit condition is
  // phase_complete(), which is (vacuously) true until the first push.
  for (std::uint64_t r = 0; r < roots; ++r)
    sched.push(depth_task(depth), control, control_stats);
  go.store(true, std::memory_order_release);
  while (!sched.phase_complete()) std::this_thread::yield();
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& th : threads) th.join();

  MicroResult out;
  out.stats = control_stats;
  for (const MatchStats& s : stats) out.stats.merge(s);
  out.tasks = out.stats.tasks_executed;
  out.ns_per_task =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(out.tasks);
  return out;
}

// Probes beyond the single one every acquisition pays, plus failed steal
// CASes — the cross-discipline "waiting at the scheduler" figure.
std::uint64_t contended_probes(const MatchStats& m) {
  return (m.queue_probes - m.queue_acquisitions) +
         (m.steal_attempts - m.steal_successes);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) setenv("PSME_BENCH_FAST", "1", 1);
  }
  BenchJson json("scheduler_compare", argc, argv);
  json.stamp("schedulers", obs::Json("central,steal"));
  const bool fast = fast_mode();

  print_header("Scheduler comparison: central queues vs work stealing",
               "Table 4-7 discipline comparison; no direct paper column");

  // --- 1. scheduler-only micro bench (real threads) -----------------------
  const int workers =
      fast ? 2
           : static_cast<int>(
                 std::min(4u, std::max(2u, std::thread::hardware_concurrency())));
  const std::uint64_t roots = fast ? 64 : 256;
  const std::uintptr_t depth = fast ? 6 : 9;
  std::printf("[micro] %d workers, %llu roots of depth %llu "
              "(pop + batched 2-way emission per task)\n\n",
              workers, static_cast<unsigned long long>(roots),
              static_cast<unsigned long long>(depth));
  std::printf("%-12s %12s %12s %14s %10s\n", "discipline", "ns/task",
              "tasks", "probes/acq", "steals");

  struct MicroSpec {
    const char* label;
    match::SchedulerKind kind;
    int queues;
  };
  const MicroSpec micro_specs[] = {
      {"central-1", match::SchedulerKind::Central, 1},
      {"central-k", match::SchedulerKind::Central, 8},
      {"steal", match::SchedulerKind::Steal, 0},
  };
  double central_k_ns = 0, steal_ns = 0;
  for (const MicroSpec& ms : micro_specs) {
    auto sched = match::make_scheduler(ms.kind, ms.queues, workers + 1);
    const MicroResult r = run_micro(*sched, workers, roots, depth);
    std::printf("%-12s %12.1f %12llu %14.2f %10llu\n", ms.label,
                r.ns_per_task, static_cast<unsigned long long>(r.tasks),
                r.stats.queue_contention(),
                static_cast<unsigned long long>(r.stats.steal_successes));
    if (std::strcmp(ms.label, "central-k") == 0) central_k_ns = r.ns_per_task;
    if (ms.kind == match::SchedulerKind::Steal) steal_ns = r.ns_per_task;
    obs::JsonObject row;
    row.emplace_back("section", obs::Json("micro"));
    row.emplace_back("discipline", obs::Json(ms.label));
    row.emplace_back("workers", obs::Json(static_cast<double>(workers)));
    row.emplace_back("ns_per_task", obs::Json(r.ns_per_task));
    row.emplace_back("tasks", obs::Json(static_cast<double>(r.tasks)));
    row.emplace_back("probes_per_acq",
                     obs::Json(r.stats.queue_contention()));
    json.add(obs::Json(std::move(row)));
  }
  std::printf("\nsteal vs central-k per-task overhead: %.2fx\n",
              steal_ns / central_k_ns);

  // --- 2. threaded engine end to end ---------------------------------------
  std::printf("\n[threads] rubik end to end, firing traces checked\n\n");
  ProgramSpec spec{"Rubik", workloads::rubik(fast ? 8 : 24)};
  auto program = ops5::Program::from_source(spec.workload.source);
  SequentialEngine seq(program, {});
  workloads::load(seq, spec.workload);
  seq.run();

  std::printf("%-12s %12s %14s %10s %8s\n", "discipline", "match ms",
              "probes/acq", "steals", "trace");
  for (const MicroSpec& ms : micro_specs) {
    EngineOptions opt;
    opt.match_processes = 4;
    opt.task_queues = ms.queues > 0 ? ms.queues : 1;
    opt.scheduler = ms.kind;
    opt.max_cycles = 10'000'000;
    ParallelEngine eng(program, opt);
    workloads::load(eng, spec.workload);
    const RunResult r = eng.run();
    const bool trace_ok = eng.trace() == seq.trace();
    std::printf("%-12s %12.2f %14.2f %10llu %8s\n", ms.label,
                r.stats.match_seconds * 1e3,
                r.stats.match.queue_contention(),
                static_cast<unsigned long long>(r.stats.match.steal_successes),
                trace_ok ? "ok" : "DIVERGED");
    if (!trace_ok) return 1;
    obs::JsonObject row;
    row.emplace_back("section", obs::Json("threads"));
    row.emplace_back("discipline", obs::Json(ms.label));
    row.emplace_back("match_ms", obs::Json(r.stats.match_seconds * 1e3));
    row.emplace_back("probes_per_acq",
                     obs::Json(r.stats.match.queue_contention()));
    json.add(obs::Json(std::move(row)));
  }

  // --- 3. simulator: the three paper programs ------------------------------
  std::printf("\n[sim] contended probes at the scheduler "
              "(beyond 1 per acquisition, + failed steal CASes)\n\n");
  const auto specs = paper_programs();
  const int procs_list[] = {1, 3, 8, 13};
  std::printf("%-10s %6s | %14s %14s %14s\n", "PROGRAM", "procs",
              "central-1", "central-8", "steal");
  for (const ProgramSpec& ps : specs) {
    for (const int p : procs_list) {
      const SimOutcome c1 =
          run_sim(ps, p, 1, match::LockScheme::Simple, true);
      const SimOutcome ck =
          run_sim(ps, p, 8, match::LockScheme::Simple, true);
      const SimOutcome st =
          run_sim(ps, p, 1, match::LockScheme::Simple, true,
                  match::SchedulerKind::Steal);
      std::printf("%-10s %6d | %14llu %14llu %14llu\n", ps.label.c_str(), p,
                  static_cast<unsigned long long>(contended_probes(c1.stats)),
                  static_cast<unsigned long long>(contended_probes(ck.stats)),
                  static_cast<unsigned long long>(contended_probes(st.stats)));
      obs::JsonObject row;
      row.emplace_back("section", obs::Json("sim"));
      row.emplace_back("program", obs::Json(ps.label));
      row.emplace_back("procs", obs::Json(static_cast<double>(p)));
      row.emplace_back(
          "central1_contended",
          obs::Json(static_cast<double>(contended_probes(c1.stats))));
      row.emplace_back(
          "central8_contended",
          obs::Json(static_cast<double>(contended_probes(ck.stats))));
      row.emplace_back(
          "steal_contended",
          obs::Json(static_cast<double>(contended_probes(st.stats))));
      row.emplace_back("steal_match_s", obs::Json(st.match_seconds));
      row.emplace_back("central1_match_s", obs::Json(c1.match_seconds));
      json.add(obs::Json(std::move(row)));
    }
  }
  std::printf(
      "\nShape check: central-1's contended probes climb with the process\n"
      "count (Table 4-7); eight queues cut them; the steal discipline's\n"
      "owner paths are contention-free, so what remains is steal traffic\n"
      "at phase edges — far below central-1 from P=8 up.\n");
  return 0;
}
