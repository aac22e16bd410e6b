// Software task queues and the TaskCount termination counter (Section 3.2).
//
// The matcher's tasks flow through one or more central queues guarded by
// spin locks. A global TaskCount holds (tasks enqueued) + (tasks being
// processed); the control process knows the match phase is over when it
// reaches zero. With a single queue every push/pop serializes on one lock —
// the bottleneck Table 4-7 quantifies; with multiple queues processes
// scatter their pushes and scan on pop.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/spinlock.hpp"
#include "common/stats.hpp"
#include "match/task.hpp"

namespace psme::match {

class TaskQueueSet {
 public:
  explicit TaskQueueSet(int num_queues);

  // Enqueue and increment TaskCount. `hint` spreads load (use a per-worker
  // rotating index). Probe counts go to stats.
  void push(const Task& task, unsigned hint, MatchStats& stats);

  // Re-enqueue without touching TaskCount (MRSW opposite-side put-back,
  // Section 3.2: "releases the lock and puts the token back onto the task
  // queue").
  void requeue(const Task& task, unsigned hint, MatchStats& stats);

  // Scan all queues starting at `hint`; returns false if all were empty.
  // Does NOT decrement TaskCount — call task_done() after processing.
  bool try_pop(Task* out, unsigned hint, MatchStats& stats);

  void task_done() { task_count_.fetch_sub(1, std::memory_order_acq_rel); }
  std::int64_t task_count() const {
    return task_count_.load(std::memory_order_acquire);
  }
  bool phase_complete() const { return task_count() == 0; }
  int num_queues() const { return static_cast<int>(queues_.size()); }

 private:
  struct alignas(64) Queue {
    SpinLock lock;
    std::deque<Task> items;
    std::atomic<std::uint32_t> approx_size{0};
  };

  void enqueue(const Task& task, unsigned hint, MatchStats& stats);

  std::vector<std::unique_ptr<Queue>> queues_;
  // Written by every push and completion; its own cache line keeps
  // queues_, which every operation reads, from bouncing with it.
  alignas(64) std::atomic<std::int64_t> task_count_{0};
};

}  // namespace psme::match
