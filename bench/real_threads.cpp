// Extra (not a paper table): wall-clock cost of the REAL std::thread engine
// against the sequential engine on the host it runs on.
//
// For rubik, weaver and tourney at 1, 2 and 3 match processes (plus the
// control thread, which runs tasks while it waits), under the threaded
// engine's default scheduler (work stealing) and under `--sched central`
// (the paper's spin-locked queue), each trial times one whole run() of the
// sequential engine and one of the threaded engine back to back, and
// prints the threads/seq wall ratio: the median over trials and its median
// absolute deviation. Below 1.0 the threaded engine is faster. Every
// threaded run's firing trace must equal the sequential one (exit 1
// otherwise).
//
// Flags: --fast (smaller programs and fewer trials, same as
// PSME_BENCH_FAST=1) and --json FILE (psme.bench.v1 rows;
// BENCH_threads_seed.json at the repo root is a committed full-scale run).
// The ratio depends on the host and its load, so no gate compares it.
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

using Clock = std::chrono::steady_clock;

// Wall seconds of one run() on a freshly loaded engine; `trace` receives
// its firing trace.
template <typename E>
double timed_run(E& eng, const workloads::Workload& w,
                 std::vector<FiringRecord>* trace) {
  workloads::load(eng, w);
  const auto t0 = Clock::now();
  eng.run();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  *trace = eng.trace();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) setenv("PSME_BENCH_FAST", "1", 1);
  const bool fast = fast_mode();
  BenchJson json("real_threads", argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  json.stamp("hardware_threads", obs::Json(std::uint64_t{hw}));

  print_header("Real-thread engine vs sequential, wall clock (host-dependent)",
               "no paper table; see EXPERIMENTS.md");
  const int trials = fast ? 3 : 25;
  std::printf("host hardware threads: %u, %d trials per cell\n", hw, trials);
  std::printf("ratio = threads run() wall / sequential run() wall "
              "(median +- MAD; < 1 is faster)\n\n");
  std::printf("%-8s %-8s %7s %10s %10s %8s %8s\n", "program", "sched",
              "procs", "seq ms", "thr ms", "ratio", "mad");

  const std::vector<ProgramSpec> specs = {
      {"rubik", workloads::rubik(fast ? 8 : 24)},
      {"weaver", workloads::weaver(fast ? 4 : 16, 2)},
      {"tourney", workloads::tourney(fast ? 6 : 10, false)},
  };
  struct Sched {
    const char* label;
    std::optional<match::SchedulerKind> kind;
  };
  const Sched scheds[] = {{"default", std::nullopt},
                          {"central", match::SchedulerKind::Central}};
  bool all_correct = true;
  for (const ProgramSpec& spec : specs) {
    const auto program = ops5::Program::from_source(spec.workload.source);
    for (const Sched& sched : scheds) {
      for (int procs = 1; procs <= 3; ++procs) {
        std::vector<double> seq_s, thr_s, ratio;
        for (int t = 0; t < trials; ++t) {
          std::vector<FiringRecord> seq_trace, thr_trace;
          SequentialEngine seq(program, {});
          seq_s.push_back(timed_run(seq, spec.workload, &seq_trace));
          EngineOptions opt;
          opt.match_processes = procs;
          opt.scheduler = sched.kind;
          ParallelEngine thr(program, opt);
          thr_s.push_back(timed_run(thr, spec.workload, &thr_trace));
          ratio.push_back(thr_s.back() / seq_s.back());
          all_correct &= thr_trace == seq_trace;
        }
        const double r = median(ratio), r_mad = mad(ratio);
        std::printf("%-8s %-8s %7d %10.2f %10.2f %8.3f %8.3f\n",
                    spec.label.c_str(), sched.label, procs,
                    1e3 * median(seq_s), 1e3 * median(thr_s), r, r_mad);
        obs::JsonObject row;
        row.emplace_back("workload", obs::Json(spec.label));
        row.emplace_back("scheduler", obs::Json(sched.label));
        row.emplace_back("workers", obs::Json(std::uint64_t(procs)));
        row.emplace_back("trials", obs::Json(std::uint64_t(trials)));
        row.emplace_back("seq_ms", obs::Json(1e3 * median(seq_s)));
        row.emplace_back("threads_ms", obs::Json(1e3 * median(thr_s)));
        row.emplace_back("ratio_median", obs::Json(r));
        row.emplace_back("ratio_mad", obs::Json(r_mad));
        json.add(obs::Json(std::move(row)));
      }
    }
  }
  if (!all_correct) {
    std::fprintf(stderr, "real_threads: a threaded trace differed from the "
                         "sequential one\n");
    return 1;
  }
  return 0;
}
