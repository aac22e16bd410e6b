#include "match/task_queue.hpp"

#include <cassert>

#include "match/machine.hpp"
#include "obs/metrics.hpp"

namespace psme::match {

TaskQueueSet::TaskQueueSet(int num_queues) {
  assert(num_queues >= 1);
  queues_.reserve(static_cast<std::size_t>(num_queues));
  for (int i = 0; i < num_queues; ++i)
    queues_.push_back(std::make_unique<Queue>());
}

void TaskQueueSet::enqueue(const Task& task, unsigned hint,
                           MatchStats& stats) {
  const auto n = queues_.size();
  std::uint64_t probes = 0;
  // Try-lock scan: take the first queue whose lock we win; if all are busy,
  // block on the preferred one.
  Queue* q = nullptr;
  for (std::size_t attempt = 0; attempt < n && !q; ++attempt) {
    Queue& cand = *queues_[(hint + attempt) % n];
    ++probes;
    if (cand.lock.try_lock()) q = &cand;
  }
  if (!q) {
    q = queues_[hint % n].get();
    probes += q->lock.lock() - 1;  // first probe of lock() already counted
  }
  charge(Machine::Cost::LockAcquire);
  charge(Machine::Cost::QueuePush);
  q->items.push_back(task);
  const auto depth = static_cast<std::uint32_t>(q->items.size());
  q->approx_size.store(depth, std::memory_order_relaxed);
  q->lock.unlock();
  stats.queue_probes += probes;
  stats.queue_acquisitions += 1;
  if (stats.queue_probe_hist) stats.queue_probe_hist->record(probes);
  if (stats.queue_depth_hist) stats.queue_depth_hist->record(depth);
}

void TaskQueueSet::push(const Task& task, unsigned hint, MatchStats& stats) {
  task_count_.fetch_add(1, std::memory_order_acq_rel);
  enqueue(task, hint, stats);
}

void TaskQueueSet::requeue(const Task& task, unsigned hint,
                           MatchStats& stats) {
  stats.requeues += 1;
  enqueue(task, hint, stats);
}

bool TaskQueueSet::try_pop(Task* out, unsigned hint, MatchStats& stats) {
  const auto n = queues_.size();
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    Queue& q = *queues_[(hint + attempt) % n];
    if (q.approx_size.load(std::memory_order_relaxed) == 0) continue;
    const std::uint64_t probes = q.lock.lock();
    charge(Machine::Cost::LockAcquire);
    stats.queue_probes += probes;
    stats.queue_acquisitions += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(probes);
    if (!q.items.empty()) {
      *out = q.items.front();
      q.items.pop_front();
      q.approx_size.store(static_cast<std::uint32_t>(q.items.size()),
                          std::memory_order_relaxed);
      charge(Machine::Cost::QueuePop);
      q.lock.unlock();
      return true;
    }
    q.lock.unlock();
  }
  return false;
}

}  // namespace psme::match
