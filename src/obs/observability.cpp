#include "obs/observability.hpp"

namespace psme::obs {

namespace {

// Descriptor shorthands. Every name that can appear in a metrics dump is
// defined in this file and documented in docs/observability.md; the
// obs_doc_test diffs the two.
MetricDesc c(const char* name, const char* unit, const char* help,
             const char* table = "") {
  return MetricDesc{name, unit, help, table, MetricKind::Counter};
}
MetricDesc g(const char* name, const char* unit, const char* help,
             const char* table = "") {
  return MetricDesc{name, unit, help, table, MetricKind::Gauge};
}
MetricDesc h(const char* name, const char* unit, const char* help,
             const char* table = "") {
  return MetricDesc{name, unit, help, table, MetricKind::Histogram};
}

}  // namespace

void Observability::attach_worker(MatchStats& stats, int worker) {
  stats.queue_depth_hist =
      &registry
           .histogram(h("psme.queue.depth", "tasks",
                        "task-queue length observed after each push"))
           .shard(worker);
  stats.queue_probe_hist =
      &registry
           .histogram(h("psme.queue.probes_per_acquisition", "probes",
                        "spin probes paid for one task-queue lock "
                        "acquisition (1 = uncontended)",
                        "4-7"))
           .shard(worker);
  for (int s = 0; s < 2; ++s) {
    stats.line_probe_hist[s] =
        &registry
             .histogram(h(s == 0 ? "psme.line.probes_per_acquisition.left"
                                 : "psme.line.probes_per_acquisition.right",
                          "probes",
                          "spin probes paid for one hash-line lock "
                          "acquisition (1 = uncontended)",
                          "4-9"))
             .shard(worker);
    stats.opp_chain_hist[s] =
        &registry
             .histogram(h(s == 0 ? "psme.match.opp_examined_per_probe.left"
                                 : "psme.match.opp_examined_per_probe.right",
                          "tokens",
                          "tokens examined in the opposite memory per "
                          "non-empty probe",
                          "4-2"))
             .shard(worker);
  }
  stats.bucket_chain_hist =
      &registry
           .histogram(h("psme.match.bucket_chain_len", "entries",
                        "bucket entries walked per scan (inline fast slot "
                        "+ overflow chain, hash-prefilter misses included)"))
           .shard(worker);
}

void Observability::export_run_stats(const RunStats& stats,
                                     Registry& registry) {
  const MatchStats& m = stats.match;

  registry
      .counter(c("psme.match.wme_changes", "changes",
                 "working-memory changes fed into the Rete root", "4-1"))
      .add(0, m.wme_changes);
  registry
      .counter(c("psme.match.node_activations", "activations",
                 "root + join + terminal node activations", "4-1"))
      .add(0, m.node_activations);
  registry
      .counter(c("psme.match.tasks_executed", "tasks",
                 "tasks popped from the queues and completed"))
      .add(0, m.tasks_executed);
  registry
      .counter(c("psme.match.emissions", "tokens",
                 "tokens scheduled by join nodes for successors"))
      .add(0, m.emissions);
  registry
      .counter(c("psme.match.conjugate_hits", "pairs",
                 "+/- token pairs annihilated on the extra-deletes list"))
      .add(0, m.conjugate_hits);
  registry
      .counter(c("psme.match.requeues", "tasks",
                 "MRSW opposite-side conflicts put back on the queue",
                 "4-8"))
      .add(0, m.requeues);
  registry
      .counter(c("psme.match.deferred_terminals", "activations",
                 "terminal activations the executor buffered for the "
                 "control process to apply at quiescence"))
      .add(0, m.deferred_terminals);
  registry
      .counter(c("psme.match.line_collisions", "entries",
                 "bucket entries skipped because their (node, key) hash "
                 "prefilter missed — unrelated residents of the line"))
      .add(0, m.line_collisions);

  for (int s = 0; s < 2; ++s) {
    const Side side = s == 0 ? Side::Left : Side::Right;
    registry
        .counter(c(s == 0 ? "psme.match.opp_examined.left"
                          : "psme.match.opp_examined.right",
                   "tokens",
                   "tokens examined in the opposite memory (non-empty "
                   "probes only)",
                   "4-2"))
        .add(0, m.opp_examined[s]);
    registry
        .counter(c(s == 0 ? "psme.match.opp_activations.left"
                          : "psme.match.opp_activations.right",
                   "activations",
                   "activations whose opposite-memory probe was non-empty",
                   "4-2"))
        .add(0, m.opp_activations[s]);
    registry
        .counter(c(s == 0 ? "psme.match.same_del_examined.left"
                          : "psme.match.same_del_examined.right",
                   "tokens",
                   "tokens examined in the same memory while locating a "
                   "delete",
                   "4-3"))
        .add(0, m.same_del_examined[s]);
    registry
        .counter(c(s == 0 ? "psme.match.same_del_activations.left"
                          : "psme.match.same_del_activations.right",
                   "activations", "delete activations that searched a chain",
                   "4-3"))
        .add(0, m.same_del_activations[s]);
    registry
        .gauge(g(s == 0 ? "psme.match.opp_examined_mean.left"
                        : "psme.match.opp_examined_mean.right",
                 "tokens", "mean tokens examined per opposite-memory probe",
                 "4-2"))
        .set(m.mean_opp_examined(side));
    registry
        .gauge(g(s == 0 ? "psme.match.same_del_examined_mean.left"
                        : "psme.match.same_del_examined_mean.right",
                 "tokens", "mean tokens examined per delete search", "4-3"))
        .set(m.mean_same_del_examined(side));
    registry
        .counter(c(s == 0 ? "psme.line.probes.left"
                          : "psme.line.probes.right",
                   "probes", "hash-line lock spin probes", "4-9"))
        .add(0, m.line_probes[s]);
    registry
        .counter(c(s == 0 ? "psme.line.acquisitions.left"
                          : "psme.line.acquisitions.right",
                   "acquisitions", "hash-line lock acquisitions", "4-9"))
        .add(0, m.line_acquisitions[s]);
    registry
        .gauge(g(s == 0 ? "psme.line.contention.left"
                        : "psme.line.contention.right",
                 "probes/acquisition",
                 "hash-line probes per acquisition (1.0 = uncontended)",
                 "4-9"))
        .set(m.line_contention(side));
  }

  registry
      .counter(c("psme.steal.attempts", "probes",
                 "victim deques probed during steal sweeps (work-stealing "
                 "scheduler only)",
                 "4-7"))
      .add(0, m.steal_attempts);
  registry
      .counter(c("psme.steal.successes", "tasks",
                 "tasks taken from another endpoint's deque or overflow "
                 "list",
                 "4-7"))
      .add(0, m.steal_successes);
  registry
      .counter(c("psme.steal.overflow_spills", "tasks",
                 "tasks spilled to a locked overflow list because the "
                 "owner's deque was full"))
      .add(0, m.steal_overflow);

  registry
      .counter(c("psme.queue.probes", "probes",
                 "task-queue lock spin probes", "4-7"))
      .add(0, m.queue_probes);
  registry
      .counter(c("psme.queue.acquisitions", "acquisitions",
                 "task-queue lock acquisitions", "4-7"))
      .add(0, m.queue_acquisitions);
  registry
      .gauge(g("psme.queue.contention", "probes/acquisition",
               "task-queue probes per acquisition (1.0 = uncontended)",
               "4-7"))
      .set(m.queue_contention());

  registry
      .counter(c("psme.run.cycles", "cycles",
                 "recognize-act cycles executed"))
      .add(0, stats.cycles);
  registry.counter(c("psme.run.firings", "firings", "productions fired"))
      .add(0, stats.firings);
  registry
      .gauge(g("psme.run.match_seconds", "seconds",
               "wall-clock time spent in the match phase"))
      .set(stats.match_seconds);
  registry
      .gauge(g("psme.run.total_seconds", "seconds",
               "wall-clock time for the whole run"))
      .set(stats.total_seconds);
  registry
      .gauge(g("psme.run.sim_match_seconds", "seconds",
               "virtual match time at the cost model's clock rate "
               "(simulator engines only)",
               "4-5"))
      .set(stats.sim_match_seconds);
}

void Observability::export_config(int match_processes, int task_queues,
                                  int lock_scheme, bool work_stealing,
                                  Registry& registry) {
  registry
      .gauge(g("psme.config.match_processes", "processes",
               "the k in the paper's 1+k configuration"))
      .set(match_processes);
  registry
      .gauge(g("psme.config.task_queues", "queues",
               "number of software task queues"))
      .set(task_queues);
  registry
      .gauge(g("psme.config.lock_scheme", "enum",
               "hash-line lock scheme: 0 simple, 1 MRSW "
               "(match::LockScheme codes)"))
      .set(lock_scheme);
  registry
      .gauge(g("psme.config.work_stealing", "bool",
               "1 when the work-stealing deque scheduler is active "
               "(0 = the paper's central queues)"))
      .set(work_stealing ? 1 : 0);
}

}  // namespace psme::obs
