// Ablation studies for the design choices DESIGN.md calls out, plus the
// two optimizations the paper describes but did not build:
//
//  A. Gupta's hardware task scheduler (Section 3.2) vs software queues.
//  B. Overlapping conflict resolution with match (footnote 3).
//  C. Token hash-table size: line count vs contention and speed-up in the
//     simulator, and vs the sequential engine's wall-clock match time and
//     line collisions (the trade-off behind kHashBuckets).
//  D. Pipelining RHS evaluation with match (the reason Table 4-5's "1+1"
//     column can exceed 1.0).
#include "bench_common.hpp"

using namespace psme;
using namespace psme::bench;

namespace {

SimOutcome run_cfg(const ProgramSpec& spec, int procs, int queues,
                   sim::SimConfig cfg,
                   std::uint32_t buckets = 0,
                   match::LockScheme scheme = match::LockScheme::Simple) {
  auto program = ops5::Program::from_source(spec.workload.source);
  EngineOptions opt;
  opt.match_processes = procs;
  opt.task_queues = queues;
  opt.lock_scheme = scheme;
  opt.max_cycles = 10'000'000;
  if (buckets) opt.hash_buckets = buckets;
  sim::SimEngine eng(program, opt, cfg);
  workloads::load(eng, spec.workload);
  eng.run();
  return {eng.sim_match_seconds(), eng.sim_total_seconds(),
          eng.match_stats()};
}

// One sequential run at `lines` buckets per side: wall-clock match ms and
// line collisions per node activation.
std::pair<double, double> run_seq_lines(const ProgramSpec& spec,
                                        const ops5::Program& program,
                                        std::uint32_t lines) {
  EngineOptions opt;
  opt.max_cycles = 10'000'000;
  opt.hash_buckets = lines;
  SequentialEngine eng(program, opt);
  workloads::load(eng, spec.workload);
  const RunStats& st = eng.run().stats;
  return {st.match_seconds * 1e3,
          static_cast<double>(st.match.line_collisions) /
              static_cast<double>(std::max<std::uint64_t>(
                  st.match.node_activations, 1))};
}

}  // namespace

int main() {
  const auto specs = paper_programs();

  print_header("Ablation A: hardware task scheduler vs software queues",
               "Section 3.2 (proposed, not built in the paper)");
  std::printf("%-10s %10s %10s %10s %12s\n", "PROGRAM", "1 queue", "8 queues",
              "HTS", "HTS contention");
  for (const auto& spec : specs) {
    const SimOutcome base = run_sim_baseline(spec);
    const SimOutcome q1 = run_sim(spec, 13, 1, match::LockScheme::Simple, true);
    const SimOutcome q8 = run_sim(spec, 13, 8, match::LockScheme::Simple, true);
    sim::SimConfig hts;
    hts.hardware_scheduler = true;
    const SimOutcome hw = run_cfg(spec, 13, 1, hts);
    std::printf("%-10s %9.2fx %9.2fx %9.2fx %12.2f\n", spec.label.c_str(),
                base.match_seconds / q1.match_seconds,
                base.match_seconds / q8.match_seconds,
                base.match_seconds / hw.match_seconds,
                hw.stats.queue_contention());
  }
  std::printf(
      "\nThe hardware scheduler removes all queue-lock convoying; programs\n"
      "limited by it (Weaver, Rubik) reach or beat the 8-queue speed-up\n"
      "with a single logical queue, while Tourney stays line-bound.\n");

  print_header("Ablation B: overlapping conflict resolution with match",
               "footnote 3 (described, not built in the paper)");
  std::printf("%-10s %16s %16s %10s\n", "PROGRAM", "total (virt s)",
              "overlapped (s)", "saved");
  for (const auto& spec : specs) {
    sim::SimConfig plain;
    const SimOutcome base = run_cfg(spec, 13, 8, plain);
    sim::SimConfig overlap;
    overlap.overlap_cr = true;
    const SimOutcome ov = run_cfg(spec, 13, 8, overlap);
    std::printf("%-10s %16.2f %16.2f %9.1f%%\n", spec.label.c_str(),
                base.total_seconds, ov.total_seconds,
                100.0 * (base.total_seconds - ov.total_seconds) /
                    base.total_seconds);
  }
  std::printf(
      "\nCR is not the bottleneck (the paper's stated reason for skipping\n"
      "this), so the saving is modest but real on short-cycle programs.\n");

  print_header("Ablation C: token hash-table size",
               "design choice: one big hash table per side, Section 3.2");
  std::printf("%-10s |", "PROGRAM");
  for (const std::uint32_t lines : {64u, 256u, 1024u, 4096u})
    std::printf("  %5u lines   ", lines);
  std::printf("\n%-10s |", "");
  for (int i = 0; i < 4; ++i) std::printf("  spdup contL  ");
  std::printf("\n");
  for (const auto& spec : specs) {
    const SimOutcome base = run_sim_baseline(spec);
    std::printf("%-10s |", spec.label.c_str());
    for (const std::uint32_t lines : {64u, 256u, 1024u, 4096u}) {
      sim::SimConfig plain;
      const SimOutcome out = run_cfg(spec, 13, 8, plain, lines);
      std::printf(" %6.2f %6.1f ",
                  base.match_seconds / out.match_seconds,
                  out.stats.line_contention(Side::Left));
    }
    std::printf("\n");
  }
  std::printf(
      "\nMore lines dilute collision-induced contention, but cross-product\n"
      "nodes (Tourney) still map every token to one line regardless.\n");

  // The same knob on real hardware: one-line buckets make every doubling
  // of the line count cost 64 B per line per side, and halve the foreign
  // residents a probe skips. Trials rotate through the line counts so
  // host drift lands on every column alike.
  const std::uint32_t wall_lines[] = {512u, 1024u, 2048u, 4096u};
  const int trials = fast_mode() ? 3 : 9;
  std::printf(
      "\nWall clock, sequential engine on this host: median match ms (MAD)\n"
      "and line collisions per activation, %d trials each\n\n",
      trials);
  std::printf("%-10s |", "PROGRAM");
  for (const std::uint32_t lines : wall_lines)
    std::printf("      %5u lines       ", lines);
  std::printf("\n%-10s |", "");
  for (int i = 0; i < 4; ++i) std::printf("      ms  (MAD)  coll/a ");
  std::printf("\n");
  for (const auto& spec : specs) {
    const auto program = ops5::Program::from_source(spec.workload.source);
    std::vector<double> ms[4];
    double coll[4] = {};
    for (int t = 0; t < trials; ++t) {
      for (int i = 0; i < 4; ++i) {
        const auto [run_ms, per_act] =
            run_seq_lines(spec, program, wall_lines[i]);
        ms[i].push_back(run_ms);
        coll[i] = per_act;  // deterministic: the same every trial
      }
    }
    std::printf("%-10s |", spec.label.c_str());
    for (int i = 0; i < 4; ++i)
      std::printf(" %7.2f (%5.2f) %6.2f ", median(ms[i]), mad(ms[i]),
                  coll[i]);
    std::printf("\n");
  }
  std::printf(
      "\nThe wall-clock engines default to 1024 lines (kHashBuckets), the\n"
      "bytes of the old 512 two-line buckets; docs/memory-layout.md says why\n"
      "the count stops there.\n");

  print_header("Ablation D: pipelining RHS evaluation with match",
               "Section 3.1 / Table 4-5's 1+1 > 1.0 columns");
  std::printf("%-10s %18s %18s %8s\n", "PROGRAM", "no overlap (s)",
              "pipelined (s)", "gain");
  for (const auto& spec : specs) {
    const SimOutcome off = run_sim(spec, 1, 1, match::LockScheme::Simple,
                                   /*pipeline=*/false);
    const SimOutcome on = run_sim(spec, 1, 1, match::LockScheme::Simple,
                                  /*pipeline=*/true);
    std::printf("%-10s %18.2f %18.2f %7.2fx\n", spec.label.c_str(),
                off.total_seconds, on.total_seconds,
                off.total_seconds / on.total_seconds);
  }
  return 0;
}
