#include "match/worker_pool.hpp"

#include <chrono>

#include "obs/observability.hpp"
#include "obs/task_events.hpp"
#include "rr/fault.hpp"
#include "rr/recorder.hpp"

namespace psme::match {

void execute_task(MatchContext& ctx, WorldContext& world,
                  const rete::Network& net, Scheduler& sched,
                  LineLocks& locks, const Task& task,
                  std::uint32_t lock_salt, std::vector<Task>& emit_buf,
                  unsigned ep, rr::Recorder* record,
                  rr::FaultInjector* faults, obs::TraceRecorder* trace) {
  MatchStats& stats = *ctx.stats;
  double ts0 = 0;
  std::uint64_t line0 = 0, queue0 = 0;
  if (trace) {
    ts0 = trace->wall_us();
    line0 = stats.line_probes[0] + stats.line_probes[1];
    queue0 = stats.queue_probes;
  }
  // Stamps one complete event covering the task just processed (including
  // the emission pushes) with the lock probes it accrued.
  auto trace_event = [&](obs::TraceEventKind kind) {
    obs::TraceEvent ev;
    ev.ts_us = ts0;
    ev.dur_us = trace->wall_us() - ts0;
    ev.kind = kind;
    ev.sign = task.sign;
    ev.node = obs::trace_node_of(task);
    ev.line_probes = static_cast<std::uint32_t>(
        stats.line_probes[0] + stats.line_probes[1] - line0);
    ev.queue_probes =
        static_cast<std::uint32_t>(stats.queue_probes - queue0);
    trace->record(static_cast<int>(ep) + 1, ev);
  };
  auto requeue = [&] {
    sched.requeue(task, ep, stats);
    if (trace) trace_event(obs::trace_requeue_kind_of(task));
  };
  // Record/replay: join tasks are logged at their commit point — while the
  // line lock that orders them against conflicting activations is still
  // held — so the log order is a valid serialization. (Completion order is
  // not: a worker descheduled between releasing its line and logging lets
  // a later lock epoch log first, and a replay serialized in that inverted
  // order probes an opposite memory the original update hadn't reached.)
  // The DelayLockRelease fault then dawdles with the lock still held.
  auto commit = [&] {
    if (record) record->on_commit(ep, task);
    if (faults)
      if (const std::uint32_t us = faults->lock_delay(ep))
        std::this_thread::sleep_for(std::chrono::microseconds(us));
  };

  emit_buf.clear();
  switch (task.kind) {
    case TaskKind::Root:
      process_root(ctx, world, net, task, emit_buf);
      break;
    case TaskKind::Terminal:
      process_terminal(ctx, world, task);
      break;
    case TaskKind::JoinLeft:
    case TaskKind::JoinRight: {
      // One task_hash per task: the hash that picked the line is handed to
      // the update phase instead of being re-derived there.
      const std::uint64_t hash = task_hash(task);
      const std::uint32_t line = world.left_table->line_of(hash) ^ lock_salt;
      const Side side = task.side();
      const bool negative = task.join->kind == rete::JoinKind::Negative;
      switch (locks.scheme()) {
        case LockScheme::Simple:
          locks.lock_exclusive(line, side, stats);
          process_join(ctx, world, task, emit_buf, nullptr, &hash);
          commit();
          locks.unlock_exclusive(line);
          break;
        case LockScheme::Seqlock: {
          // Speculative probe, validated under the writer lock (kernel.hpp,
          // SpecProbe); negative nodes run fully locked. Another world's
          // commit on a shared lock line can force a retry: a false
          // conflict, never a missed one.
          auto writer_join = [&] {
            locks.lock_writer(line, side, stats);
            process_join(ctx, world, task, emit_buf, nullptr, &hash);
            commit();
            locks.unlock_writer(line);
          };
          if (negative) {
            writer_join();
            break;
          }
          std::uint32_t retries = 0;
          bool committed = false;
          while (!committed && retries <= kSeqlockMaxRetries) {
            emit_buf.clear();
            const std::uint32_t s0 = locks.seq_begin(line);
            SpecProbe spec;
            speculate_join_probe(ctx, world, task, hash, emit_buf, spec);
            if (!locks.try_writer_commit(line, s0, side, stats)) {
              ++retries;
              continue;
            }
            const MemUpdate update =
                process_join_update(ctx, world, task, nullptr, &hash);
            if (update.outcome == MemUpdate::Outcome::Inserted ||
                update.outcome == MemUpdate::Outcome::Removed) {
              commit_spec_probe(ctx, task, spec);
            } else {
              emit_buf.clear();  // annihilated/parked: no probe happens
            }
            commit();
            locks.unlock_writer(line);
            committed = true;
          }
          if (!committed) {
            // Retry budget exhausted on a pathologically hot line: run the
            // whole activation under the writer lock, like Simple would.
            stats.seq_fallbacks += 1;
            emit_buf.clear();
            writer_join();
          }
          stats.seq_retries += retries;
          if (stats.seq_retry_hist) stats.seq_retry_hist->record(retries);
          break;
        }
        case LockScheme::Mrsw: {
          if (negative) {
            if (!locks.try_enter_exclusive(line, side, stats)) {
              requeue();
              return;  // task still counted in TaskCount
            }
            process_join(ctx, world, task, emit_buf, nullptr, &hash);
            commit();
            locks.leave_exclusive(line);
            break;
          }
          if (!locks.try_enter(line, side, stats)) {
            requeue();
            return;
          }
          locks.lock_modification(line, side, stats);
          const MemUpdate update =
              process_join_update(ctx, world, task, nullptr, &hash);
          // The memory update is what conflicting opposite-side tasks
          // observe; the probe after unlock only reads the already-frozen
          // opposite side.
          commit();
          locks.unlock_modification(line);
          process_join_probe(ctx, world, task, update, emit_buf);
          locks.leave(line);
          break;
        }
      }
      break;
    }
  }
  // Root and Terminal tasks commute (roots only read shared state,
  // terminals serialize on the conflict set's own lock), so logging them
  // here — before their emissions are published, keeping the log causal —
  // is still a valid serialization.
  if (record && (task.kind == TaskKind::Root ||
                 task.kind == TaskKind::Terminal))
    record->on_commit(ep, task);
  // Batched handoff: all emissions of this task are published in one
  // scheduler operation (a single release store in the steal discipline).
  sched.push_batch(emit_buf.data(), emit_buf.size(), ep, stats);
  stats.tasks_executed += 1;
  sched.task_done();
  if (trace) trace_event(obs::trace_kind_of(task.kind));
}

WorkerPool::WorkerPool(const rete::Network& net, const rete::CodeStore* code,
                       int workers, std::unique_ptr<Scheduler> sched,
                       std::uint32_t lock_lines, LockScheme scheme,
                       std::vector<PoolWorld> worlds, Hooks hooks)
    : net_(net),
      code_(code),
      sched_(std::move(sched)),
      locks_(lock_lines, scheme),
      worlds_(std::move(worlds)),
      hooks_(hooks) {
  for (int i = 0; i < workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_.store(true, std::memory_order_release);
    active_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void WorkerPool::begin_run(MatchStats& control_stats) {
  ++runs_started_;
  if (thread_spawns_ == 0) {
    for (unsigned ep = 0; ep < workers_.size(); ++ep) {
      workers_[ep]->thread = std::thread([this, ep] { worker_main(ep); });
      ++thread_spawns_;
    }
  }
  if (obs::Observability* obs = hooks_.obs) {
    obs->trace.enable(static_cast<int>(workers_.size()) + 1, "wall");
    obs->attach_worker(control_stats, 0);
    for (std::size_t i = 0; i < workers_.size(); ++i)
      obs->attach_worker(workers_[i]->stats, static_cast<int>(i) + 1);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void WorkerPool::wait_quiescent() const {
  std::uint32_t spins = 0;
  while (!sched_->phase_complete()) {
    SpinLock::cpu_relax();
    if (++spins >= 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

void WorkerPool::end_run(MatchStats& into) {
  active_.store(false, std::memory_order_release);
  // Wait for every worker to park, so their stats are quiescent to merge
  // (the task queues are already drained — the driver reached quiescence).
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] {
      return parked_ == static_cast<int>(workers_.size());
    });
  }
  for (auto& w : workers_) {
    into.merge(w->stats);
    w->stats = MatchStats{};  // histogram shards re-wired at next begin_run
  }
}

void WorkerPool::worker_main(unsigned ep) {
  Worker& wk = *workers_[ep];
  MatchContext ctx;
  ctx.strategy = MemoryStrategy::Hash;
  ctx.stats = &wk.stats;
  ctx.code = code_;
  rr::Recorder* const record = hooks_.record;
  rr::FaultInjector* const faults = hooks_.faults;
  obs::TraceRecorder* const trace = hooks_.obs ? &hooks_.obs->trace : nullptr;
  std::vector<Task> emit_buf;
  for (;;) {
    {
      // Park between runs; begin_run() wakes the pool.
      std::unique_lock<std::mutex> lk(mu_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lk, [this] {
        return active_.load(std::memory_order_acquire) ||
               shutdown_.load(std::memory_order_acquire);
      });
      --parked_;
      if (shutdown_.load(std::memory_order_acquire)) return;
    }
    std::uint32_t idle = 0;
    while (active_.load(std::memory_order_acquire) &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (faults) {
        if (faults->worker_dead(ep)) {
          std::this_thread::yield();
          continue;
        }
        if (const std::uint32_t us = faults->stall(ep))
          std::this_thread::sleep_for(std::chrono::microseconds(us));
        if (faults->fail_pop(ep)) {
          SpinLock::cpu_relax();
          continue;
        }
      }
      Task task;
      if (!sched_->try_pop(&task, ep, wk.stats)) {
        // Idle: between phases, or starved. Back off politely so the
        // control thread (and, on small hosts, other match processes) can
        // run.
        if (++idle >= 16) {
          std::this_thread::yield();
        } else {
          SpinLock::cpu_relax();
        }
        continue;
      }
      idle = 0;
      if (faults) {
        if (faults->drop_requeue(ep)) {
          sched_->requeue(task, ep, wk.stats);
          continue;
        }
        if (faults->lose_task(ep)) {
          sched_->task_done();  // the bug: discarded but counted done
          continue;
        }
      }
      const PoolWorld& world = worlds_[task.world];
      ctx.arena = &world.arenas[ep];
      execute_task(ctx, *world.ctx, net_, *sched_, locks_, task,
                   world.lock_salt, emit_buf, ep, record, faults, trace);
    }
  }
}

}  // namespace psme::match
