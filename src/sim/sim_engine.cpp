#include "sim/sim_engine.hpp"

#include <cassert>
#include <ostream>

#include "common/symbol_table.hpp"
#include "match/kernel.hpp"
#include "obs/observability.hpp"
#include "obs/task_events.hpp"
#include "rr/digest.hpp"
#include "rr/fault.hpp"
#include "rr/recorder.hpp"
#include "rr/replay.hpp"

namespace psme::sim {

namespace {
enum MrswFlag : std::uint8_t {
  kUnused = 0,
  kLeft = 1,
  kRight = 2,
  kExclusive = 3
};
}  // namespace

SimEngine::SimEngine(const ops5::Program& program, EngineOptions options,
                     SimConfig config)
    : EngineBase(program, options), config_(config) {
  if (options_.match_processes < 1)
    throw std::invalid_argument("SimEngine requires at least one match CPU");
  if (options_.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument("SimEngine uses the hash-table memories");
  left_table_ = std::make_unique<match::HashTokenTable>(options_.hash_buckets);
  right_table_ =
      std::make_unique<match::HashTokenTable>(options_.hash_buckets);
  world_.left_table = left_table_.get();
  world_.right_table = right_table_.get();
  world_.conflict_set = &cs_;
}

SimEngine::~SimEngine() = default;

void SimEngine::submit_change(const Wme* wme, std::int8_t sign) {
  ctl_.pending.emplace_back(wme, sign);
}

SubTask<bool> SimEngine::push_task(SimCpu& cpu, match::Task task,
                                   unsigned hint, MatchStats& stats,
                                   bool is_requeue) {
  if (!is_requeue) ++task_count_;
  if (config_.hardware_scheduler) {
    // One uncontended bus transaction (idealized HTS model).
    co_await sched_->spend(cpu, config_.cost.hts_op);
    SimQueue& q = queues_[hint % queues_.size()];
    q.items.push_back(task);
    stats.queue_acquisitions += 1;
    stats.queue_probes += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
    if (stats.queue_depth_hist)
      stats.queue_depth_hist->record(q.items.size());
    wake_for_push(cpu);
    co_return true;
  }
  const std::size_t n = queues_.size();
  SimQueue* q = nullptr;
  std::uint64_t failed_probes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SimQueue& cand = queues_[(hint + i) % n];
    if (!cand.lock.held) {
      q = &cand;
      break;
    }
    ++failed_probes;  // busy queue: one test of its lock word
  }
  stats.queue_probes += failed_probes;
  if (!q) q = &queues_[hint % n];
  co_await sched_->acquire(cpu, q->lock, &stats.queue_probes,
                           &stats.queue_acquisitions,
                           stats.queue_probe_hist);
  co_await sched_->spend(cpu, config_.cost.queue_push);
  q->items.push_back(task);
  if (stats.queue_depth_hist)
    stats.queue_depth_hist->record(q->items.size());
  sched_->release(q->lock, cpu.now);
  wake_for_push(cpu);
  co_return true;
}

SubTask<bool> SimEngine::pop_task(SimCpu& cpu, match::Task* out,
                                  unsigned hint, MatchStats& stats) {
  const std::size_t n = queues_.size();
  if (config_.hardware_scheduler) {
    for (std::size_t i = 0; i < n; ++i) {
      SimQueue& q = queues_[(hint + i) % n];
      if (q.items.empty()) continue;
      co_await sched_->spend(cpu, config_.cost.hts_op);
      if (q.items.empty()) continue;  // raced with another pop
      *out = q.items.front();
      q.items.pop_front();
      stats.queue_acquisitions += 1;
      stats.queue_probes += 1;
      if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
      co_return true;
    }
    co_return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    SimQueue& q = queues_[(hint + i) % n];
    if (q.items.empty()) continue;
    co_await sched_->acquire(cpu, q.lock, &stats.queue_probes,
                             &stats.queue_acquisitions,
                             stats.queue_probe_hist);
    if (q.items.empty()) {  // drained while we spun
      sched_->release(q.lock, cpu.now);
      continue;
    }
    *out = q.items.front();
    q.items.pop_front();
    co_await sched_->spend(cpu, config_.cost.queue_pop);
    sched_->release(q.lock, cpu.now);
    co_return true;
  }
  co_return false;
}

SubTask<bool> SimEngine::steal_push(SimCpu& cpu, match::Task task,
                                    unsigned who, MatchStats& stats,
                                    bool is_requeue) {
  if (!is_requeue) ++task_count_;
  SimDeque& d = deques_[who];
  const CostModel& cm = config_.cost;
  if (d.items.size() >= options_.steal_deque_capacity) {
    // Full deque: spill to the locked overflow list (the rare slow path).
    co_await sched_->acquire(cpu, d.overflow_lock, &stats.queue_probes,
                             &stats.queue_acquisitions,
                             stats.queue_probe_hist);
    co_await sched_->spend(cpu, cm.overflow_op);
    d.overflow.push_back(task);
    sched_->release(d.overflow_lock, cpu.now);
    stats.steal_overflow += 1;
  } else {
    // Owner-end publish: no lock, one release store.
    co_await sched_->spend(cpu, cm.deque_publish + cm.deque_task_copy);
    d.items.push_back(task);
    stats.queue_probes += 1;
    stats.queue_acquisitions += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
    if (stats.queue_depth_hist)
      stats.queue_depth_hist->record(d.items.size());
  }
  wake_for_push(cpu);
  co_return true;
}

SubTask<bool> SimEngine::steal_push_batch(SimCpu& cpu,
                                          const std::vector<match::Task>& tasks,
                                          unsigned who, MatchStats& stats) {
  if (tasks.empty()) co_return true;
  // One TaskCount bump covers the whole batch, before any task is visible.
  task_count_ += static_cast<std::int64_t>(tasks.size());
  SimDeque& d = deques_[who];
  const CostModel& cm = config_.cost;
  const std::size_t cap = options_.steal_deque_capacity;
  const std::size_t room = d.items.size() >= cap ? 0 : cap - d.items.size();
  const std::size_t fit = tasks.size() < room ? tasks.size() : room;
  if (fit > 0) {
    // Batched handoff: n slot writes, one publication charge.
    co_await sched_->spend(
        cpu, cm.deque_publish + cm.deque_task_copy * static_cast<VTime>(fit));
    for (std::size_t i = 0; i < fit; ++i) d.items.push_back(tasks[i]);
    stats.queue_probes += 1;
    stats.queue_acquisitions += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
    if (stats.queue_depth_hist)
      stats.queue_depth_hist->record(d.items.size());
  }
  if (fit < tasks.size()) {
    co_await sched_->acquire(cpu, d.overflow_lock, &stats.queue_probes,
                             &stats.queue_acquisitions,
                             stats.queue_probe_hist);
    co_await sched_->spend(
        cpu, cm.overflow_op * static_cast<VTime>(tasks.size() - fit));
    for (std::size_t i = fit; i < tasks.size(); ++i)
      d.overflow.push_back(tasks[i]);
    sched_->release(d.overflow_lock, cpu.now);
    stats.steal_overflow += tasks.size() - fit;
  }
  if (replay_mode()) {
    sched_->wake_all(idle_workers_, cpu.now);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i)
      sched_->wake_one(idle_workers_, cpu.now);
  }
  co_return true;
}

SubTask<bool> SimEngine::steal_pop(SimCpu& cpu, match::Task* out,
                                   unsigned who, MatchStats& stats) {
  SimDeque& mine = deques_[who];
  const CostModel& cm = config_.cost;
  if (!mine.items.empty()) {
    co_await sched_->spend(cpu, cm.deque_pop);
    if (!mine.items.empty()) {  // thieves may have drained it while we spent
      *out = mine.items.back();
      mine.items.pop_back();
      stats.queue_probes += 1;
      stats.queue_acquisitions += 1;
      if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
      co_return true;
    }
  }
  if (!mine.overflow.empty()) {
    co_await sched_->acquire(cpu, mine.overflow_lock, &stats.queue_probes,
                             &stats.queue_acquisitions,
                             stats.queue_probe_hist);
    if (!mine.overflow.empty()) {
      co_await sched_->spend(cpu, cm.overflow_op);
      *out = mine.overflow.front();
      mine.overflow.pop_front();
      sched_->release(mine.overflow_lock, cpu.now);
      co_return true;
    }
    sched_->release(mine.overflow_lock, cpu.now);
  }
  // Steal sweep: probe every other endpoint once, starting past our id.
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    SimDeque& v = deques_[(who + i) % n];
    co_await sched_->spend(cpu, cm.steal_probe);
    stats.steal_attempts += 1;
    if (!v.items.empty()) {
      co_await sched_->spend(cpu, cm.steal_cas);
      if (v.items.empty()) continue;  // CAS lost to a faster thief
      *out = v.items.front();
      v.items.pop_front();
      stats.steal_successes += 1;
      stats.queue_probes += 1;
      stats.queue_acquisitions += 1;
      if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
      co_return true;
    }
    if (!v.overflow.empty()) {
      co_await sched_->acquire(cpu, v.overflow_lock, &stats.queue_probes,
                               &stats.queue_acquisitions,
                               stats.queue_probe_hist);
      if (!v.overflow.empty()) {
        co_await sched_->spend(cpu, cm.overflow_op);
        *out = v.overflow.front();
        v.overflow.pop_front();
        stats.steal_successes += 1;
        sched_->release(v.overflow_lock, cpu.now);
        co_return true;
      }
      sched_->release(v.overflow_lock, cpu.now);
    }
  }
  co_return false;
}

bool SimEngine::any_deque_ready() const {
  for (const SimDeque& d : deques_)
    if (!d.items.empty() || !d.overflow.empty()) return true;
  return false;
}

void SimEngine::wake_for_push(SimCpu& cpu) {
  if (replay_mode())
    sched_->wake_all(idle_workers_, cpu.now);
  else
    sched_->wake_one(idle_workers_, cpu.now);
}

std::size_t SimEngine::queued_total() const {
  std::size_t n = 0;
  for (const SimQueue& q : queues_) n += q.items.size();
  for (const SimDeque& d : deques_) n += d.items.size() + d.overflow.size();
  return n;
}

bool SimEngine::have_fp(std::uint64_t fp) const {
  for (const SimQueue& q : queues_)
    for (const match::Task& t : q.items)
      if (rr::task_fingerprint(t) == fp) return true;
  for (const SimDeque& d : deques_) {
    for (const match::Task& t : d.items)
      if (rr::task_fingerprint(t) == fp) return true;
    for (const match::Task& t : d.overflow)
      if (rr::task_fingerprint(t) == fp) return true;
  }
  return false;
}

bool SimEngine::take_by_fp(std::uint64_t fp, match::Task* out) {
  for (SimQueue& q : queues_) {
    for (auto it = q.items.begin(); it != q.items.end(); ++it) {
      if (rr::task_fingerprint(*it) != fp) continue;
      *out = *it;
      q.items.erase(it);
      return true;
    }
  }
  for (SimDeque& d : deques_) {
    for (auto it = d.items.begin(); it != d.items.end(); ++it) {
      if (rr::task_fingerprint(*it) != fp) continue;
      *out = *it;
      d.items.erase(it);
      return true;
    }
    for (auto it = d.overflow.begin(); it != d.overflow.end(); ++it) {
      if (rr::task_fingerprint(*it) != fp) continue;
      *out = *it;
      d.overflow.erase(it);
      return true;
    }
  }
  return false;
}

bool SimEngine::take_any(match::Task* out) {
  for (SimQueue& q : queues_) {
    if (q.items.empty()) continue;
    *out = q.items.front();
    q.items.pop_front();
    return true;
  }
  for (SimDeque& d : deques_) {
    if (!d.items.empty()) {
      *out = d.items.front();
      d.items.pop_front();
      return true;
    }
    if (!d.overflow.empty()) {
      *out = d.overflow.front();
      d.overflow.pop_front();
      return true;
    }
  }
  return false;
}

SubTask<bool> SimEngine::replay_pop(SimCpu& cpu, match::Task* out,
                                    unsigned who, MatchStats& stats) {
  rr::ReplayCoordinator* coord = options_.rr_replay;
  const auto have = [this](std::uint64_t fp) { return have_fp(fp); };
  std::uint64_t fp = 0;
  switch (coord->poll(who, queued_total(), have, &fp)) {
    case rr::ReplayCoordinator::Verdict::Wait:
      co_return false;
    case rr::ReplayCoordinator::Verdict::Take: {
      co_await sched_->spend(cpu, config_.cost.queue_pop);
      // Nothing can have taken it during the spend: pops are funnelled
      // through the coordinator and the expected task is ours (in flight).
      const bool ok = take_by_fp(fp, out);
      assert(ok);
      stats.queue_probes += 1;
      stats.queue_acquisitions += 1;
      if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
      co_return ok;
    }
    case rr::ReplayCoordinator::Verdict::Free: {
      if (queued_total() == 0) co_return false;
      co_await sched_->spend(cpu, config_.cost.queue_pop);
      co_return take_any(out);
    }
  }
  co_return false;
}

SubTask<bool> SimEngine::join_task(SimCpu& cpu, WorkerState& w,
                                   match::Task task,
                                   std::vector<match::Task>& emit) {
  // One task_hash per task (the update phase reuses it via the hint).
  const std::uint64_t hash = match::task_hash(task);
  const std::uint32_t line = left_table_->line_of(hash);
  const Side side = task.side();
  const int si = side_index(side);
  MatchStats& st = w.stats;
  const CostModel& cm = config_.cost;

  // Record/replay: join tasks commit while the serializing line lock is
  // still held, so the log order is a valid serialization (see
  // match::execute_task for the full argument — coroutine interleaving at
  // co_await points creates the same epoch inversion).
  auto rr_commit = [&] {
    if (options_.rr_record) options_.rr_record->on_commit(w.id, task);
  };

  if (options_.lock_scheme == match::LockScheme::Simple) {
    co_await sched_->acquire(cpu, simple_lines_[line], &st.line_probes[si],
                             &st.line_acquisitions[si],
                             st.line_probe_hist[si]);
    match::ActivationCost ac;
    const match::MemUpdate up = match::process_join_update(w.ctx, world_, task, &ac, &hash);
    co_await sched_->spend(cpu, cm.join_update_charge(ac, task.sign));
    match::ActivationCost ap;
    match::process_join_probe(w.ctx, world_, task, up, emit, &ap);
    co_await sched_->spend(cpu, cm.join_probe_charge(ap));
    rr_commit();
    if (options_.rr_faults)
      if (const std::uint32_t mag = options_.rr_faults->lock_delay(w.id))
        co_await sched_->spend(cpu, static_cast<VTime>(mag));
    sched_->release(simple_lines_[line], cpu.now);
    co_return true;
  }

  if (options_.lock_scheme == match::LockScheme::Seqlock) {
    // Optimistic discipline (match/line_locks.hpp). The simulator executes
    // the activation functionally at its serialization point — under the
    // writer lock, where the threaded engine validates its speculation —
    // and models the speculative probes in the cost placement: only
    // seq_write + the memory update are charged inside the lock; the probe
    // scan (one run per attempt, seq_read each) is charged after release,
    // which is exactly the reader-side concurrency the scheme buys.
    // Commits that landed between the first speculative read (c0) and our
    // acquisition are the torn attempts this task would have discarded.
    SeqLine& L = seq_lines_[line];
    const bool negative = task.join->kind == rete::JoinKind::Negative;
    const std::uint64_t c0 = L.commits;
    co_await sched_->acquire(cpu, L.writer, &st.line_probes[si],
                             &st.line_acquisitions[si],
                             st.line_probe_hist[si]);
    ++L.commits;
    match::ActivationCost ac;
    const match::MemUpdate up =
        match::process_join_update(w.ctx, world_, task, &ac, &hash);
    co_await sched_->spend(cpu,
                           cm.seq_write + cm.join_update_charge(ac, task.sign));
    match::ActivationCost ap;
    match::process_join_probe(w.ctx, world_, task, up, emit, &ap);
    std::uint64_t retries = 0;
    bool probe_inside = negative;  // negatives run fully locked, no retries
    if (!negative) {
      retries = L.commits - 1 - c0;
      if (retries > static_cast<std::uint64_t>(match::kSeqlockMaxRetries)) {
        // Retry budget exhausted: the final run holds the lock for the
        // whole activation, like Simple would.
        retries = static_cast<std::uint64_t>(match::kSeqlockMaxRetries) + 1;
        st.seq_fallbacks += 1;
        probe_inside = true;
      }
      st.seq_retries += retries;
      if (st.seq_retry_hist) st.seq_retry_hist->record(retries);
    }
    if (probe_inside) co_await sched_->spend(cpu, cm.join_probe_charge(ap));
    rr_commit();
    if (options_.rr_faults)
      if (const std::uint32_t mag = options_.rr_faults->lock_delay(w.id))
        co_await sched_->spend(cpu, static_cast<VTime>(mag));
    sched_->release(L.writer, cpu.now);
    if (!negative) {
      // Discarded attempts re-ran the scan lock-free; the committed probe
      // too unless it fell back. Each attempt starts and validates with a
      // sequence read.
      const std::uint64_t attempts = retries + (probe_inside ? 0 : 1);
      if (attempts > 0)
        co_await sched_->spend(
            cpu, attempts * (2 * cm.seq_read + cm.join_probe_charge(ap)));
    }
    co_return true;
  }

  // MRSW scheme (Section 3.2's complex locks).
  MrswLine& L = mrsw_lines_[line];
  const bool exclusive = task.join->kind == rete::JoinKind::Negative;
  const std::uint8_t mine =
      exclusive ? kExclusive : (side == Side::Left ? kLeft : kRight);
  co_await sched_->acquire(cpu, L.guard, &st.line_probes[si],
                           &st.line_acquisitions[si],
                           st.line_probe_hist[si]);
  co_await sched_->spend(cpu, cm.mrsw_enter);
  const bool ok = exclusive ? L.flag == kUnused
                            : (L.flag == kUnused || L.flag == mine);
  if (ok) {
    L.flag = mine;
    ++L.users;
  }
  sched_->release(L.guard, cpu.now);
  if (!ok) {
    st.requeues += 1;
    if (steal_mode()) {
      co_await steal_push(cpu, task, w.id, st, /*is_requeue=*/true);
    } else {
      co_await push_task(cpu, task, w.hint++, st, /*is_requeue=*/true);
    }
    co_return false;
  }

  if (exclusive) {
    match::ActivationCost ac;
    const match::MemUpdate up = match::process_join_update(w.ctx, world_, task, &ac, &hash);
    co_await sched_->spend(cpu, cm.join_update_charge(ac, task.sign));
    match::ActivationCost ap;
    match::process_join_probe(w.ctx, world_, task, up, emit, &ap);
    co_await sched_->spend(cpu, cm.join_probe_charge(ap));
    rr_commit();
    if (options_.rr_faults)
      if (const std::uint32_t mag = options_.rr_faults->lock_delay(w.id))
        co_await sched_->spend(cpu, static_cast<VTime>(mag));
  } else {
    co_await sched_->acquire(cpu, L.modification, &st.line_probes[si],
                             &st.line_acquisitions[si],
                             st.line_probe_hist[si]);
    match::ActivationCost ac;
    const match::MemUpdate up = match::process_join_update(w.ctx, world_, task, &ac, &hash);
    co_await sched_->spend(
        cpu, cm.mrsw_modification + cm.join_update_charge(ac, task.sign));
    // The update is what conflicting opposite-side tasks observe; the
    // probe after release only reads the already-frozen opposite side.
    rr_commit();
    if (options_.rr_faults)
      if (const std::uint32_t mag = options_.rr_faults->lock_delay(w.id))
        co_await sched_->spend(cpu, static_cast<VTime>(mag));
    sched_->release(L.modification, cpu.now);
    match::ActivationCost ap;
    match::process_join_probe(w.ctx, world_, task, up, emit, &ap);
    co_await sched_->spend(cpu, cm.join_probe_charge(ap));
  }

  // Leave the line (uncounted guard handshake, as in the threaded engine).
  co_await sched_->acquire(cpu, L.guard, nullptr, nullptr);
  assert(L.users > 0);
  if (--L.users == 0) L.flag = kUnused;
  sched_->release(L.guard, cpu.now);
  co_return true;
}

Proc SimEngine::worker_main(WorkerState& w) {
  SimCpu& cpu = *w.cpu;
  std::vector<match::Task> emit;
  const CostModel& cm = config_.cost;
  // Stamps one complete event (virtual-clock microseconds) for the task
  // processed since `t0`, with the lock probes it accrued.
  auto record = [&](const match::Task& task, obs::TraceEventKind kind,
                    VTime t0, std::uint64_t line0, std::uint64_t queue0) {
    obs::TraceEvent ev;
    ev.ts_us = cm.to_seconds(t0) * 1e6;
    ev.dur_us = cm.to_seconds(cpu.now - t0) * 1e6;
    ev.kind = kind;
    ev.sign = task.sign;
    ev.node = obs::trace_node_of(task);
    ev.line_probes = static_cast<std::uint32_t>(
        w.stats.line_probes[0] + w.stats.line_probes[1] - line0);
    ev.queue_probes =
        static_cast<std::uint32_t>(w.stats.queue_probes - queue0);
    options_.obs->trace.record(cpu.id, ev);
  };
  for (;;) {
    if (shutdown_) co_return;
    if (rr::FaultInjector* faults = options_.rr_faults) {
      if (faults->worker_dead(w.id)) {
        // Don't swallow a wake_one that targeted this worker: hand it on
        // so a survivor drains whatever the wakeup announced.
        sched_->wake_all(idle_workers_, cpu.now);
        co_return;
      }
      if (const std::uint32_t mag = faults->stall(w.id))
        co_await sched_->spend(cpu, static_cast<VTime>(mag));
      if (faults->fail_pop(w.id)) {
        co_await sched_->spend(cpu, cm.steal_probe);
        continue;
      }
    }
    match::Task task;
    bool got;
    if (replay_mode()) {
      got = co_await replay_pop(cpu, &task, w.id, w.stats);
    } else if (steal_mode()) {
      got = co_await steal_pop(cpu, &task, w.id, w.stats);
    } else {
      got = co_await pop_task(cpu, &task, w.hint, w.stats);
    }
    if (!got) {
      if (shutdown_) co_return;
      // Steal mode: the sweep contains awaits, so work pushed mid-sweep can
      // be missed by every worker at once. This await-free re-check runs
      // atomically within the coroutine resume, closing the window before
      // we commit to sleeping.
      if (steal_mode() && !replay_mode() && any_deque_ready()) continue;
      co_await sched_->sleep(cpu, idle_workers_);
      continue;
    }
    w.hint += 1;
    if (rr::FaultInjector* faults = options_.rr_faults) {
      if (faults->drop_requeue(w.id)) {
        w.stats.requeues += 1;
        if (steal_mode()) {
          co_await steal_push(cpu, task, w.id, w.stats, /*is_requeue=*/true);
        } else {
          co_await push_task(cpu, task, w.hint++, w.stats, /*is_requeue=*/true);
        }
        continue;
      }
      if (faults->lose_task(w.id)) {
        // The bug under test: the task is discarded but still counted done.
        --task_count_;
        if (task_count_ == 0) sched_->wake_all(control_wait_, cpu.now);
        continue;
      }
    }
    const bool tracing = options_.obs && options_.obs->trace.enabled();
    const VTime t0 = cpu.now;
    const std::uint64_t line0 =
        w.stats.line_probes[0] + w.stats.line_probes[1];
    const std::uint64_t queue0 = w.stats.queue_probes;
    co_await sched_->spend(cpu, cm.task_dispatch);
    emit.clear();
    bool done = true;
    switch (task.kind) {
      case match::TaskKind::Root: {
        match::ActivationCost ac;
        match::process_root(w.ctx, world_, network(), task, emit, &ac);
        co_await sched_->spend(cpu, cm.root_charge(ac, emit.size()));
        break;
      }
      case match::TaskKind::Terminal: {
        match::process_terminal(w.ctx, world_, task);
        co_await sched_->spend(cpu, cm.terminal_update);
        break;
      }
      case match::TaskKind::JoinLeft:
      case match::TaskKind::JoinRight:
        done = co_await join_task(cpu, w, task, emit);
        break;
    }
    if (!done) {  // requeued; still counted in TaskCount
      if (tracing)
        record(task, obs::trace_requeue_kind_of(task), t0, line0, queue0);
      if (replay_mode()) {
        options_.rr_replay->requeued();
        sched_->wake_all(idle_workers_, cpu.now);
      }
      continue;
    }
    // Join tasks committed inside their lock region (join_task above);
    // Root/Terminal tasks commute and commit here, before their emissions
    // are published, keeping the log causal.
    if (options_.rr_record && task.kind != match::TaskKind::JoinLeft &&
        task.kind != match::TaskKind::JoinRight)
      options_.rr_record->on_commit(w.id, task);
    if (steal_mode()) {
      // Batched handoff: the whole emission set becomes visible in one
      // owner-end publication, as in WorkStealingScheduler::push_batch.
      co_await steal_push_batch(cpu, emit, w.id, w.stats);
    } else {
      for (const match::Task& t : emit)
        co_await push_task(cpu, t, w.hint++, w.stats, false);
    }
    w.stats.tasks_executed += 1;
    if (tracing)
      record(task, obs::trace_kind_of(task.kind), t0, line0, queue0);
    if (replay_mode()) {
      options_.rr_replay->completed();
      sched_->wake_all(idle_workers_, cpu.now);
    }
    --task_count_;
    if (task_count_ == 0) sched_->wake_all(control_wait_, cpu.now);
  }
}

Proc SimEngine::control_main() {
  SimCpu& cpu = *control_cpu_;
  const CostModel& cm = config_.cost;
  unsigned hint = 0;
  // Steal discipline: the control CPU owns the last endpoint's deque (the
  // injection queue); workers acquire roots by stealing from it.
  const unsigned ctrl_ep = static_cast<unsigned>(options_.match_processes);
  VTime last_idle = 0;  // control idle time in the last quiescence wait

  auto push_changes =
      [&](std::vector<std::pair<const Wme*, std::int8_t>> changes)
      -> SubTask<bool> {
    if (changes.empty()) co_return true;
    // New phase: roots are about to go in (clears the replayer's
    // stuck-schedule arming until all pushes land).
    if (options_.rr_replay) options_.rr_replay->phase_opened();
    VTime phase_start = 0;
    if (config_.pipeline) {
      bool first = true;
      for (const auto& [wme, sign] : changes) {
        co_await sched_->spend(cpu, cm.rhs_per_change);
        if (first) {
          phase_start = cpu.now;
          first = false;
        }
        match::Task root;
        root.kind = match::TaskKind::Root;
        root.sign = sign;
        root.wme = wme;
        if (steal_mode()) {
          co_await steal_push(cpu, root, ctrl_ep, control_stats_, false);
        } else {
          co_await push_task(cpu, root, hint++, control_stats_, false);
        }
      }
    } else {
      // Non-pipelined baseline: evaluate the whole RHS first, then match.
      co_await sched_->spend(
          cpu, cm.rhs_per_change * static_cast<VTime>(changes.size()));
      phase_start = cpu.now;
      for (const auto& [wme, sign] : changes) {
        match::Task root;
        root.kind = match::TaskKind::Root;
        root.sign = sign;
        root.wme = wme;
        if (steal_mode()) {
          co_await steal_push(cpu, root, ctrl_ep, control_stats_, false);
        } else {
          co_await push_task(cpu, root, hint++, control_stats_, false);
        }
      }
    }
    const VTime pushes_done = cpu.now;
    if (options_.rr_replay) {
      // All of the phase's root pushes are in: arm stuck-schedule detection
      // and give sleeping workers a chance to re-evaluate their verdicts.
      options_.rr_replay->phase_pushed();
      sched_->wake_all(idle_workers_, cpu.now);
    }
    while (task_count_ != 0) co_await sched_->sleep(cpu, control_wait_);
    last_idle = cpu.now - pushes_done;
    sim_match_time_ += cpu.now - phase_start;
    co_return true;
  };

  // Initial working memory.
  co_await push_changes(std::move(ctl_.pending));
  ctl_.pending.clear();
  ctl_.quiesced(cs_);
  rr_quiescent_hook();

  const Control::Submit submit = [this](const Wme* wme, std::int8_t sign) {
    submit_change(wme, sign);
  };
  while (!ctl_.stopped()) {
    VTime cr_cost =
        cm.cr_base + cm.cr_per_instantiation * static_cast<VTime>(cs_.size());
    if (config_.overlap_cr) {
      // Footnote 3's optimization: conflict resolution proceeds while the
      // match tail drains, so only the excess beyond the control process's
      // idle wait costs wall-clock time.
      cr_cost = cr_cost > last_idle ? cr_cost - last_idle : 0;
    }
    co_await sched_->spend(cpu, cr_cost);
    auto inst = cs_.select_and_fire(options_.strategy);
    if (!inst) {
      ctl_.last_reason = StopReason::EmptyConflictSet;
      break;
    }
    // The RHS runs natively; its changes queue in ctl_.pending
    // (submit_change) and are pushed with their virtual costs.
    ctl_.fire(image_, options_, *inst, submit);
    co_await push_changes(std::move(ctl_.pending));
    ctl_.pending.clear();
    ctl_.quiesced(cs_);
    rr_quiescent_hook();
  }

  shutdown_ = true;
  sched_->wake_all(idle_workers_, cpu.now);
  co_return;
}

RunResult SimEngine::run() {
  sched_ = std::make_unique<Scheduler>(config_.cost);
  queues_ = std::vector<SimQueue>(
      static_cast<std::size_t>(options_.task_queues));
  deques_.clear();
  if (steal_mode())
    deques_ = std::vector<SimDeque>(
        static_cast<std::size_t>(options_.match_processes) + 1);
  // Lock count follows the table's rounded (power-of-two) line count, not
  // the requested bucket count — line_of() indexes the rounded space (same
  // reasoning as ParallelEngine's lock table).
  switch (options_.lock_scheme) {
    case match::LockScheme::Simple:
      simple_lines_ = std::vector<SimLock>(left_table_->size());
      break;
    case match::LockScheme::Mrsw:
      mrsw_lines_ = std::vector<MrswLine>(left_table_->size());
      break;
    case match::LockScheme::Seqlock:
      seq_lines_ = std::vector<SeqLine>(left_table_->size());
      break;
  }
  task_count_ = 0;
  shutdown_ = false;
  sim_match_time_ = 0;

  control_cpu_ = &sched_->add_cpu();
  // Worker states persist across run() calls: the hash-table memories keep
  // tokens allocated from the workers' arenas between runs, so destroying a
  // worker would leave the persistent memories dangling. Only the virtual
  // CPUs are per-run.
  if (workers_.empty()) {
    for (int i = 0; i < options_.match_processes; ++i) {
      auto w = std::make_unique<WorkerState>();
      w->hint = static_cast<unsigned>(i);
      w->id = static_cast<unsigned>(i);
      w->ctx.strategy = match::MemoryStrategy::Hash;
      w->ctx.arena = &w->arena;
      w->ctx.stats = &w->stats;
      if (options_.match_vm) w->ctx.code = &network().code();
      workers_.push_back(std::move(w));
    }
  }
  for (auto& w : workers_) w->cpu = &sched_->add_cpu();
  if (options_.obs) {
    // Virtual-clock trace: stream 0 is the control CPU, i+1 is match CPU i
    // (matching the SimCpu ids handed out above).
    options_.obs->trace.enable(options_.match_processes + 1, "virtual");
    options_.obs->attach_worker(control_stats_, 0);
    for (std::size_t i = 0; i < workers_.size(); ++i)
      options_.obs->attach_worker(workers_[i]->stats,
                                  static_cast<int>(i) + 1);
  }

  sched_->start(*control_cpu_, control_main());
  for (auto& w : workers_) sched_->start(*w->cpu, worker_main(*w));
  sched_->run();

  VTime end_time = control_cpu_->now;
  for (auto& w : workers_) {
    ctl_.stats.match.merge(w->stats);
    // Reset after merging so the next run() doesn't double-count (the obs
    // shard pointers are re-attached at the top of the next run).
    w->stats = MatchStats{};
    end_time = std::max(end_time, w->cpu->now);
    w->cpu = nullptr;
  }
  ctl_.stats.match.merge(control_stats_);
  control_stats_ = MatchStats{};
  ctl_.stats.sim_match_seconds = config_.cost.to_seconds(sim_match_time_);
  sim_total_seconds_ = config_.cost.to_seconds(end_time);
  sched_.reset();

  return ctl_.result();
}

}  // namespace psme::sim
