#include "match/scheduler.hpp"

#include <cassert>

#include "match/machine.hpp"
#include "obs/metrics.hpp"

namespace psme::match {

// --- CentralScheduler -------------------------------------------------------

CentralScheduler::CentralScheduler(int num_queues, int endpoints)
    : set_(num_queues), eps_(static_cast<std::size_t>(endpoints)) {
  assert(endpoints >= 1);
  // Stagger the starting hints as the threaded engine always has (worker i
  // started its rotation at queue i).
  for (std::size_t i = 0; i < eps_.size(); ++i)
    eps_[i].rr = static_cast<unsigned>(i);
}

void CentralScheduler::push(const Task& task, unsigned who,
                            MatchStats& stats) {
  set_.push(task, eps_[who].rr++, stats);
}

void CentralScheduler::push_batch(const Task* tasks, std::size_t n,
                                  unsigned who, MatchStats& stats) {
  for (std::size_t i = 0; i < n; ++i) set_.push(tasks[i], eps_[who].rr++, stats);
}

void CentralScheduler::requeue(const Task& task, unsigned who,
                               MatchStats& stats) {
  set_.requeue(task, eps_[who].rr++, stats);
}

bool CentralScheduler::try_pop(Task* out, unsigned who, MatchStats& stats) {
  // Rotate the scan start on every pop (see the class comment): a failed
  // scan still advances the offset, so retrying workers fan out instead of
  // hammering the same queue-0-first order.
  return set_.try_pop(out, eps_[who].rr++, stats);
}

// --- WorkStealingScheduler --------------------------------------------------

WorkStealingScheduler::WorkStealingScheduler(int endpoints,
                                             std::uint32_t deque_capacity) {
  assert(endpoints >= 1);
  eps_.reserve(static_cast<std::size_t>(endpoints));
  for (int i = 0; i < endpoints; ++i)
    eps_.push_back(std::make_unique<Endpoint>(deque_capacity));
}

void WorkStealingScheduler::place(const Task* tasks, std::size_t n,
                                  unsigned who, MatchStats& stats) {
  Endpoint& e = *eps_[who];
  charge(Machine::Cost::DequePublish, n);
  const std::size_t placed = e.deque.push_batch(tasks, n);
  // One publication per batch, uncontended by construction: account it as
  // a single-probe acquisition so queue_contention() stays comparable
  // across disciplines (1.0 == no waiting).
  stats.queue_probes += 1;
  stats.queue_acquisitions += 1;
  if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
  if (stats.queue_depth_hist)
    stats.queue_depth_hist->record(
        static_cast<std::uint64_t>(e.deque.approx_size()));
  if (placed == n) return;
  // Full deque: spill the tail to the spin-locked overflow list (the rare
  // slow path; the lock's probes land in the queue counters like any
  // other task-queue lock).
  {
    SpinGuard g(e.ovf_lock, &stats.queue_probes);
    charge(Machine::Cost::LockAcquire);
    charge(Machine::Cost::Overflow, n - placed);
    stats.queue_acquisitions += 1;
    for (std::size_t i = placed; i < n; ++i) e.overflow.push_back(tasks[i]);
    e.ovf_size.store(static_cast<std::uint32_t>(e.overflow.size()),
                     std::memory_order_relaxed);
  }
  stats.steal_overflow += n - placed;
}

void WorkStealingScheduler::push(const Task& task, unsigned who,
                                 MatchStats& stats) {
  task_count_.fetch_add(1, std::memory_order_acq_rel);
  place(&task, 1, who, stats);
}

void WorkStealingScheduler::push_batch(const Task* tasks, std::size_t n,
                                       unsigned who, MatchStats& stats) {
  if (n == 0) return;
  // One TaskCount bump for the whole batch — the count must cover the
  // tasks before they become stealable, and a single fetch_add keeps the
  // shared counter off the per-emission hot path.
  task_count_.fetch_add(static_cast<std::int64_t>(n),
                        std::memory_order_acq_rel);
  place(tasks, n, who, stats);
}

void WorkStealingScheduler::requeue(const Task& task, unsigned who,
                                    MatchStats& stats) {
  stats.requeues += 1;
  place(&task, 1, who, stats);
}

bool WorkStealingScheduler::pop_own_overflow(Task* out, Endpoint& e,
                                             MatchStats& stats) {
  if (e.ovf_size.load(std::memory_order_relaxed) == 0) return false;
  SpinGuard g(e.ovf_lock, &stats.queue_probes);
  charge(Machine::Cost::LockAcquire);
  stats.queue_acquisitions += 1;
  if (e.overflow.empty()) return false;
  charge(Machine::Cost::Overflow);
  *out = e.overflow.front();
  e.overflow.pop_front();
  e.ovf_size.store(static_cast<std::uint32_t>(e.overflow.size()),
                   std::memory_order_relaxed);
  return true;
}

bool WorkStealingScheduler::steal_from(Task* out, Endpoint& victim,
                                       MatchStats& stats) {
  for (;;) {
    stats.steal_attempts += 1;
    charge(Machine::Cost::StealProbe);
    switch (victim.deque.steal(out)) {
      case WsDeque::Steal::Got:
        charge(Machine::Cost::StealCas);
        stats.steal_successes += 1;
        stats.queue_probes += 1;
        stats.queue_acquisitions += 1;
        return true;
      case WsDeque::Steal::Empty:
        goto overflow;
      case WsDeque::Steal::Lost:
        // Someone else advanced top; the deque may still hold tasks.
        SpinLock::cpu_relax();
        continue;
    }
  }
overflow:
  // A victim mid-spill can hold tasks only in its overflow list.
  if (victim.ovf_size.load(std::memory_order_relaxed) == 0) return false;
  if (!victim.ovf_lock.try_lock()) return false;
  charge(Machine::Cost::LockAcquire);
  stats.queue_probes += 1;
  stats.queue_acquisitions += 1;
  bool got = false;
  if (!victim.overflow.empty()) {
    charge(Machine::Cost::Overflow);
    *out = victim.overflow.front();
    victim.overflow.pop_front();
    victim.ovf_size.store(static_cast<std::uint32_t>(victim.overflow.size()),
                          std::memory_order_relaxed);
    stats.steal_successes += 1;
    got = true;
  }
  victim.ovf_lock.unlock();
  return got;
}

bool WorkStealingScheduler::try_pop(Task* out, unsigned who,
                                    MatchStats& stats) {
  Endpoint& mine = *eps_[who];
  if (mine.deque.pop(out)) {
    charge(Machine::Cost::DequePop);
    stats.queue_probes += 1;
    stats.queue_acquisitions += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
    return true;
  }
  if (pop_own_overflow(out, mine, stats)) return true;
  // Steal sweep: probe every other endpoint once, starting just past our
  // own id so concurrent thieves fan out over distinct victims.
  const std::size_t n = eps_.size();
  for (std::size_t i = 1; i < n; ++i) {
    Endpoint& victim = *eps_[(who + i) % n];
    if (steal_from(out, victim, stats)) return true;
  }
  return false;
}

// --- factory ----------------------------------------------------------------

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int num_queues,
                                          int endpoints) {
  if (kind == SchedulerKind::Steal)
    return std::make_unique<WorkStealingScheduler>(endpoints);
  return std::make_unique<CentralScheduler>(num_queues, endpoints);
}

}  // namespace psme::match
