// Instrumentation counters for the matcher.
//
// Every engine (sequential, threaded, simulated) accumulates a MatchStats
// per worker and merges them at the end of a run, so instrumenting never
// introduces extra sharing between match processes. MatchStats is the
// hot-path per-worker shard of the observability layer: src/obs's registry
// publishes these scalars under documented metric names (see
// docs/observability.md), and the HistogramShard pointers below let the
// task queues, hash-line locks, and the match kernel sample distributions
// in place when an obs::Observability is attached. The counters map
// directly onto the paper's tables:
//   - Table 4-1: wme_changes, node_activations
//   - Table 4-2: opp_examined / opp_activations   (by activation side)
//   - Table 4-3: same_del_examined / same_del_activations
//   - Table 4-7: queue_probes / queue_acquisitions
//   - Table 4-9: line_probes / line_acquisitions  (by activation side)
#pragma once

#include <cstdint>

namespace psme::obs {
struct HistogramShard;  // obs/metrics.hpp
}  // namespace psme::obs

namespace psme {

// Which input of a two-input node an activation arrived on.
enum class Side : std::uint8_t { Left = 0, Right = 1 };

inline constexpr int side_index(Side s) { return static_cast<int>(s); }
inline constexpr Side opposite(Side s) {
  return s == Side::Left ? Side::Right : Side::Left;
}

struct MatchStats {
  // Volume.
  std::uint64_t wme_changes = 0;       // changes fed into the root
  std::uint64_t node_activations = 0;  // join/negative/terminal tasks
  std::uint64_t tasks_executed = 0;    // everything popped from task queues
  std::uint64_t emissions = 0;         // tokens scheduled by join nodes
  std::uint64_t conjugate_hits = 0;    // +/- pairs annihilated early
  std::uint64_t requeues = 0;          // MRSW opposite-side put-backs
  // Terminal activations the executor buffered for the control to apply
  // at quiescence (match::WorkerPool); each also counts in
  // node_activations on the endpoint that ran it.
  std::uint64_t deferred_terminals = 0;
  // Hash-line collisions: entries examined during bucket scans whose
  // (node id, key hash) prefilter did not match — unrelated residents of
  // the same line (hash backend only).
  std::uint64_t line_collisions = 0;

  // Tokens examined in the opposite memory, counted only for activations
  // where the opposite memory was non-empty (paper, Table 4-2).
  std::uint64_t opp_examined[2] = {0, 0};
  std::uint64_t opp_activations[2] = {0, 0};

  // Tokens examined in the same memory while locating a token to delete
  // (paper, Table 4-3).
  std::uint64_t same_del_examined[2] = {0, 0};
  std::uint64_t same_del_activations[2] = {0, 0};

  // Lock contention: probes per acquisition, 1.0 == uncontended.
  std::uint64_t queue_probes = 0;
  std::uint64_t queue_acquisitions = 0;
  std::uint64_t line_probes[2] = {0, 0};
  std::uint64_t line_acquisitions[2] = {0, 0};

  // Work-stealing discipline (match/scheduler.hpp): victim-deque probes
  // (failed + successful, incl. CAS retries), tasks actually stolen, and
  // tasks spilled to an overflow list because the owner's deque was full.
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t steal_overflow = 0;

  // Left from the deleted bytecode VM for wallbench's layer rows; always 0.
  std::uint64_t vm_loads = 0;
  std::uint64_t vm_tests = 0;
  std::uint64_t vm_branches = 0;

  // Observability wiring (obs::Observability::attach_worker): this worker's
  // shards of the registry's distribution metrics. Null when no observer is
  // attached; merge() ignores them — they are wiring, not data.
  obs::HistogramShard* queue_depth_hist = nullptr;   // psme.queue.depth
  obs::HistogramShard* queue_probe_hist = nullptr;   // probes_per_acquisition
  obs::HistogramShard* line_probe_hist[2] = {nullptr, nullptr};
  obs::HistogramShard* opp_chain_hist[2] = {nullptr, nullptr};
  // Physical bucket walk lengths (fast slot + overflow chain, prefilter
  // misses included): psme.match.bucket_chain_len.
  obs::HistogramShard* bucket_chain_hist = nullptr;

  void merge(const MatchStats& o) {
    wme_changes += o.wme_changes;
    node_activations += o.node_activations;
    tasks_executed += o.tasks_executed;
    emissions += o.emissions;
    conjugate_hits += o.conjugate_hits;
    requeues += o.requeues;
    deferred_terminals += o.deferred_terminals;
    line_collisions += o.line_collisions;
    for (int s = 0; s < 2; ++s) {
      opp_examined[s] += o.opp_examined[s];
      opp_activations[s] += o.opp_activations[s];
      same_del_examined[s] += o.same_del_examined[s];
      same_del_activations[s] += o.same_del_activations[s];
      line_probes[s] += o.line_probes[s];
      line_acquisitions[s] += o.line_acquisitions[s];
    }
    queue_probes += o.queue_probes;
    queue_acquisitions += o.queue_acquisitions;
    steal_attempts += o.steal_attempts;
    steal_successes += o.steal_successes;
    steal_overflow += o.steal_overflow;
  }

  double mean_opp_examined(Side s) const {
    const int i = side_index(s);
    return opp_activations[i] == 0
               ? 0.0
               : static_cast<double>(opp_examined[i]) /
                     static_cast<double>(opp_activations[i]);
  }
  double mean_same_del_examined(Side s) const {
    const int i = side_index(s);
    return same_del_activations[i] == 0
               ? 0.0
               : static_cast<double>(same_del_examined[i]) /
                     static_cast<double>(same_del_activations[i]);
  }
  double queue_contention() const {
    return queue_acquisitions == 0
               ? 0.0
               : static_cast<double>(queue_probes) /
                     static_cast<double>(queue_acquisitions);
  }
  double line_contention(Side s) const {
    const int i = side_index(s);
    return line_acquisitions[i] == 0
               ? 0.0
               : static_cast<double>(line_probes[i]) /
                     static_cast<double>(line_acquisitions[i]);
  }
};

// Summary of a full engine run.
struct RunStats {
  std::uint64_t cycles = 0;        // recognize-act cycles executed
  std::uint64_t firings = 0;       // productions fired
  double match_seconds = 0.0;      // wall-clock time spent in match
  double total_seconds = 0.0;      // wall-clock time for the whole run
  double sim_match_seconds = 0.0;  // virtual time (simulator engines only)
  MatchStats match;
};

}  // namespace psme
