#include "match/worker_pool.hpp"

#include "match/machine.hpp"
#include "obs/observability.hpp"
#include "rr/fault.hpp"
#include "rr/recorder.hpp"

namespace psme::match {

void execute_task(MatchContext& ctx, WorldContext& world,
                  const rete::Network& net, Scheduler& sched,
                  LineLocks& locks, const Task& task,
                  std::uint32_t lock_salt, std::vector<Task>& emit_buf,
                  std::vector<Task>& terminals, unsigned ep,
                  rr::Recorder* record, rr::FaultInjector* faults,
                  obs::TraceRecorder* trace) {
  MatchStats& stats = *ctx.stats;
  // On a Machine every step is charged, and trace timestamps are its clock.
  Machine* const m = machine();
  auto clock_us = [&] { return m ? m->now_us() : trace->wall_us(); };
  double ts0 = 0;
  std::uint64_t line0 = 0, queue0 = 0;
  if (trace) {
    ts0 = clock_us();
    line0 = stats.line_probes[0] + stats.line_probes[1];
    queue0 = stats.queue_probes;
  }
  if (m) m->charge(Machine::Cost::TaskDispatch);
  // Cost facts are gathered only for a Machine to price.
  ActivationCost update_cost, probe_cost;
  ActivationCost* const uc = m ? &update_cost : nullptr;
  ActivationCost* const pc = m ? &probe_cost : nullptr;
  // Both phases of a join under a lock the caller holds, each charged.
  auto locked_join = [&](const std::uint64_t& hash) {
    const MemUpdate update = process_join_update(ctx, world, task, uc, &hash);
    if (m) m->charge(Machine::Phase::JoinUpdate, task, update_cost);
    process_join_probe(ctx, world, task, update, emit_buf, pc);
    if (m) m->charge(Machine::Phase::JoinProbe, task, probe_cost);
  };
  // Stamps one complete event covering the task just processed (including
  // the emission pushes) with the lock probes it accrued.
  auto trace_event = [&](bool requeued) {
    using Kind = obs::TraceEventKind;
    constexpr Kind kKindOf[] = {Kind::Root, Kind::JoinLeft, Kind::JoinRight,
                                Kind::Terminal};  // by TaskKind
    obs::TraceEvent ev;
    ev.ts_us = ts0;
    ev.dur_us = clock_us() - ts0;
    ev.kind = !requeued ? kKindOf[static_cast<int>(task.kind)]
              : task.side() == Side::Left ? Kind::RequeueLeft
                                          : Kind::RequeueRight;
    ev.sign = task.sign;
    ev.node = task.join       ? static_cast<std::uint32_t>(task.join->id)
              : task.terminal ? task.terminal->prod_index
                              : 0;
    ev.line_probes = static_cast<std::uint32_t>(
        stats.line_probes[0] + stats.line_probes[1] - line0);
    ev.queue_probes =
        static_cast<std::uint32_t>(stats.queue_probes - queue0);
    // The control endpoint, endpoints() - 1, is stream 0.
    trace->record(
        static_cast<int>((ep + 1) % static_cast<unsigned>(sched.endpoints())),
        ev);
  };
  auto requeue = [&] {
    sched.requeue(task, ep, stats);
    if (trace) trace_event(/*requeued=*/true);
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
      if (const std::uint32_t delay = faults->lock_delay(ep)) pause(delay);
  };

  emit_buf.clear();
  switch (task.kind) {
    case TaskKind::Root:
      process_root(ctx, world, net, task, emit_buf, uc);
      if (m) m->charge(Machine::Phase::Root, task, update_cost);
      break;
    case TaskKind::Terminal:
      terminals.push_back(task);
      if (m) m->charge(Machine::Phase::Terminal, task, update_cost);
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
          locked_join(hash);
          commit();
          locks.unlock_exclusive(line);
          break;
        case LockScheme::Mrsw: {
          if (negative) {
            if (!locks.try_enter_exclusive(line, side, stats)) {
              requeue();
              return;  // task still counted in TaskCount
            }
            locked_join(hash);
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
              process_join_update(ctx, world, task, uc, &hash);
          if (m) m->charge(Machine::Phase::JoinUpdate, task, update_cost);
          // The memory update is what conflicting opposite-side tasks
          // observe; the probe after unlock only reads the already-frozen
          // opposite side.
          commit();
          locks.unlock_modification(line);
          process_join_probe(ctx, world, task, update, emit_buf, pc);
          if (m) m->charge(Machine::Phase::JoinProbe, task, probe_cost);
          locks.leave(line);
          break;
        }
      }
      break;
    }
  }
  // Root and Terminal tasks commute (roots only read shared state,
  // terminals are applied at quiescence), so logging them here — before
  // their emissions are published, keeping the log causal — is still a
  // valid serialization.
  if (record && (task.kind == TaskKind::Root ||
                 task.kind == TaskKind::Terminal))
    record->on_commit(ep, task);
  stats.tasks_executed += 1;
  // Batched handoff: the emissions this task publishes go out in one
  // scheduler operation (a single release store in the steal discipline).
  // Continuation-first keeps the last one back and runs it next, here, on
  // this task's TaskCount slot, so a chain costs no scheduler operation and
  // no TaskCount atomic. Each continuation sits one node deeper in the
  // network, so the recursion is as deep as the longest production.
  const std::size_t n = emit_buf.size();
  const bool continue_here = n > 0 && sched.allows_continuation();
  sched.push_batch(emit_buf.data(), continue_here ? n - 1 : n, ep, stats);
  if (trace) trace_event(/*requeued=*/false);
  if (!continue_here) {
    sched.task_done();
    return;
  }
  const Task next = emit_buf[n - 1];
  execute_task(ctx, world, net, sched, locks, next, lock_salt, emit_buf,
               terminals, ep, record, faults, trace);
}

WorkerPool::WorkerPool(const rete::Network& net, int workers,
                       std::unique_ptr<Scheduler> sched,
                       std::uint32_t lock_lines, LockScheme scheme,
                       std::vector<PoolWorld> worlds, Hooks hooks)
    : net_(net),
      sched_(std::move(sched)),
      locks_(lock_lines, scheme),
      worlds_(std::move(worlds)),
      hooks_(hooks) {
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->ex = make_executor(&workers_.back()->stats);
  }
  control_ = make_executor(nullptr);
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

WorkerPool::Executor WorkerPool::make_executor(MatchStats* stats) const {
  Executor ex;
  ex.ctx.strategy = MemoryStrategy::Hash;
  ex.ctx.stats = stats;
  return ex;
}

void WorkerPool::begin_run(MatchStats& control_stats) {
  ++runs_started_;
  control_.ctx.stats = &control_stats;
  if (obs::Observability* obs = hooks_.obs) {
    obs->trace.enable(static_cast<int>(workers_.size()) + 1,
                      machine() ? "virtual" : "wall");
    obs->attach_worker(control_stats, 0);
    for (std::size_t i = 0; i < workers_.size(); ++i)
      obs->attach_worker(workers_[i]->stats, static_cast<int>(i) + 1);
  }
  if (machine()) return;  // its CPUs call run_one themselves
  if (thread_spawns_ == 0) {
    for (unsigned ep = 0; ep < workers_.size(); ++ep) {
      workers_[ep]->thread = std::thread([this, ep] { worker_main(ep); });
      ++thread_spawns_;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void WorkerPool::wait_quiescent() {
  // The control thread is one more match process until the phase drains:
  // spinning idle here would leave a core unused for the whole phase.
  std::uint32_t idle = 0;
  while (!sched_->phase_complete()) {
    if (run_one(control_ep())) {
      idle = 0;
    } else if (++idle >= 64) {
      std::this_thread::yield();
      idle = 0;
    } else {
      SpinLock::cpu_relax();
    }
  }
  apply_deferred_terminals();
}

void WorkerPool::apply_deferred_terminals() {
  auto apply = [this](Executor& ex) {
    // Skip an empty buffer without a write: its idle worker keeps writing
    // its own statistics and executor lines while it looks for work.
    if (ex.terminals.empty()) return;
    for (const Task& t : ex.terminals)
      process_terminal(ex.ctx, *worlds_[t.world].ctx, t);
    ex.ctx.stats->deferred_terminals += ex.terminals.size();
    ex.terminals.clear();
  };
  for (auto& w : workers_) apply(w->ex);
  apply(control_);
}

void WorkerPool::end_run(MatchStats& into) {
  active_.store(false, std::memory_order_release);
  // Wait for every worker to park, so their stats are quiescent to merge
  // (the task queues are already drained — the driver reached quiescence).
  if (thread_spawns_ > 0) {
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

bool WorkerPool::run_one(unsigned ep) {
  Executor& ex = ep == control_ep() ? control_ : workers_[ep]->ex;
  rr::FaultInjector* const faults = hooks_.faults;
  MatchStats& stats = *ex.ctx.stats;
  if (faults) {
    if (faults->worker_dead(ep)) {
      std::this_thread::yield();
      return false;
    }
    if (const std::uint32_t stall = faults->stall(ep)) pause(stall);
    if (faults->fail_pop(ep)) return false;
  }
  Task task;
  if (!sched_->try_pop(&task, ep, stats)) return false;
  if (faults) {
    if (faults->drop_requeue(ep)) {
      sched_->requeue(task, ep, stats);
      return true;
    }
    if (faults->lose_task(ep)) {
      sched_->task_done();  // the bug: discarded but counted done
      return true;
    }
  }
  const PoolWorld& world = worlds_[task.world];
  ex.ctx.arena = &world.arenas[ep];
  execute_task(ex.ctx, *world.ctx, net_, *sched_, locks_, task,
               world.lock_salt, ex.emit_buf, ex.terminals, ep, hooks_.record,
               faults, hooks_.obs ? &hooks_.obs->trace : nullptr);
  return true;
}

void WorkerPool::worker_main(unsigned ep) {
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
      if (run_one(ep)) {
        idle = 0;
      } else if (++idle >= 16) {
        // Idle: between phases, or starved. Back off politely so the
        // control thread (and, on small hosts, other match processes) can
        // run.
        std::this_thread::yield();
      } else {
        SpinLock::cpu_relax();
      }
    }
  }
}

}  // namespace psme::match
