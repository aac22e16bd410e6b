// Observability: the bundle an engine run records into.
//
// Attach one to EngineOptions::obs and the parallel drivers will
//  - wire per-worker HistogramShard pointers into each worker's MatchStats
//    (attach_worker), so the task queues, hash-line locks, and match kernel
//    sample queue depths, spin-probe distributions, and opposite-memory
//    chain lengths in place;
//  - record one trace event per executed task into `trace`.
//
// After the run, export_run() publishes every scalar in RunStats/MatchStats
// into the registry under the documented metric names (the full name ->
// meaning -> paper-table map lives in docs/observability.md; a test diffs
// that file against this registry). Engines that know their configuration
// call export_config() too, so a metrics dump is self-describing.
#pragma once

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace psme::obs {

struct Observability {
  Registry registry;
  TraceRecorder trace;

  // Hooks `stats` (one worker's shard of the match counters) up to this
  // registry's histograms, using `worker` as the shard index
  // (0 = control process, 1..k = match processes).
  void attach_worker(MatchStats& stats, int worker);

  // Publishes the merged end-of-run statistics under the documented names.
  void export_run(const RunStats& stats) {
    export_run_stats(stats, registry);
  }

  // Static exporters, usable with a bare Registry.
  static void export_run_stats(const RunStats& stats, Registry& registry);
  // Engine-configuration gauges (worker/queue counts, lock scheme,
  // scheduler discipline). `lock_scheme` is the integer code of
  // match::LockScheme (0 simple, 1 MRSW) — an int rather than the enum so
  // obs does not depend on match headers.
  static void export_config(int match_processes, int task_queues,
                            int lock_scheme, bool work_stealing,
                            Registry& registry);
};

}  // namespace psme::obs
