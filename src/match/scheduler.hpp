// Match-task scheduling disciplines behind one interface.
//
// The paper mitigates central-queue contention with k spin-locked queues
// (Section 3.2, Table 4-7); this layer keeps that discipline and adds a
// modern alternative: per-worker lock-free deques with work stealing and
// batched task handoff. Engines talk to a Scheduler through stable
// *endpoints* — worker i uses endpoint i, the control process uses
// endpoint `endpoints()-1` — and never see which discipline is active.
//
// TaskCount semantics are identical across disciplines (and identical to
// TaskQueueSet): push/push_batch increment before the tasks become
// visible, requeue (the MRSW opposite-side put-back) never touches the
// count, and task_done() decrements only after a task completes, so
// phase_complete() cannot report a quiescent match phase early. A
// continuation (allows_continuation below) is never pushed: it takes over
// its parent's count, which the chain's last task_done() releases.
//
// See docs/scheduling.md for the full discipline comparison, termination
// protocol, and the simulator's steal cost model.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/spinlock.hpp"
#include "common/stats.hpp"
#include "match/task.hpp"
#include "match/task_queue.hpp"
#include "match/ws_deque.hpp"

namespace psme::match {

// EngineOptions selection: the paper's central spin-locked queues
// ("central:k" — k = EngineOptions::task_queues) vs per-worker
// work-stealing deques.
enum class SchedulerKind : std::uint8_t { Central, Steal };

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // `who` is the caller's endpoint id, in [0, endpoints()).
  virtual void push(const Task& task, unsigned who, MatchStats& stats) = 0;
  virtual void push_batch(const Task* tasks, std::size_t n, unsigned who,
                          MatchStats& stats) = 0;
  virtual void requeue(const Task& task, unsigned who, MatchStats& stats) = 0;
  virtual bool try_pop(Task* out, unsigned who, MatchStats& stats) = 0;

  virtual void task_done() = 0;
  virtual std::int64_t task_count() const = 0;
  bool phase_complete() const { return task_count() == 0; }
  virtual int endpoints() const = 0;

  // Whether an executor may keep a task's last emission and run it next on
  // the same endpoint, unpublished and on the parent's TaskCount slot
  // (continuation-first, match::execute_task). A scheduler that must see
  // every task, like the record/replay one, declines.
  virtual bool allows_continuation() const { return true; }
};

// The paper's discipline: TaskQueueSet (1..k spin-locked queues) behind
// per-endpoint rotating hints. Pushes rotate exactly as the threaded
// engine always did; pops now rotate too — previously every pop scanned
// from the worker's last *push* hint, so once their own hint queues
// drained all workers converged on the same first non-empty queue and
// serialized on its lock. Rotating the start offset on every pop spreads
// concurrent drainers across the queues.
class CentralScheduler final : public Scheduler {
 public:
  CentralScheduler(int num_queues, int endpoints);

  void push(const Task& task, unsigned who, MatchStats& stats) override;
  void push_batch(const Task* tasks, std::size_t n, unsigned who,
                  MatchStats& stats) override;
  void requeue(const Task& task, unsigned who, MatchStats& stats) override;
  bool try_pop(Task* out, unsigned who, MatchStats& stats) override;

  void task_done() override { set_.task_done(); }
  std::int64_t task_count() const override { return set_.task_count(); }
  int endpoints() const override { return static_cast<int>(eps_.size()); }
  int num_queues() const { return set_.num_queues(); }
  // The paper's discipline publishes every emission: its queue-contention
  // tables (4-5 to 4-7) count a queue round trip per task.
  bool allows_continuation() const override { return false; }

 private:
  // Each endpoint's rotating queue hint, cache-line isolated; only the
  // owning worker touches it.
  struct alignas(64) Endpoint {
    unsigned rr = 0;
  };

  TaskQueueSet set_;
  std::vector<Endpoint> eps_;
};

// Per-endpoint bounded Chase-Lev deques with CAS stealing. The owner's
// push/pop never take a lock; emissions of one task are published with a
// single release store (WsDeque::push_batch); a full deque spills to the
// endpoint's spin-locked overflow list (counted in
// MatchStats::steal_overflow), which both the owner and thieves drain.
// The control endpoint pushes the root tasks, and workers acquire those by
// stealing, so the control deque doubles as the phase's injection queue;
// while it waits for quiescence the control pops and steals like a worker.
class WorkStealingScheduler final : public Scheduler {
 public:
  WorkStealingScheduler(int endpoints,
                        std::uint32_t deque_capacity = WsDeque::kDefaultCapacity);

  void push(const Task& task, unsigned who, MatchStats& stats) override;
  void push_batch(const Task* tasks, std::size_t n, unsigned who,
                  MatchStats& stats) override;
  void requeue(const Task& task, unsigned who, MatchStats& stats) override;
  bool try_pop(Task* out, unsigned who, MatchStats& stats) override;

  void task_done() override {
    task_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
  std::int64_t task_count() const override {
    return task_count_.load(std::memory_order_acquire);
  }
  int endpoints() const override { return static_cast<int>(eps_.size()); }
  std::uint32_t deque_capacity() const { return eps_[0]->deque.capacity(); }

 private:
  struct alignas(64) Endpoint {
    explicit Endpoint(std::uint32_t capacity) : deque(capacity) {}
    WsDeque deque;
    SpinLock ovf_lock;
    std::deque<Task> overflow;
    std::atomic<std::uint32_t> ovf_size{0};
  };

  // Place tasks at `who`'s owner end, spilling what does not fit.
  void place(const Task* tasks, std::size_t n, unsigned who,
             MatchStats& stats);
  bool pop_own_overflow(Task* out, Endpoint& e, MatchStats& stats);
  bool steal_from(Task* out, Endpoint& victim, MatchStats& stats);

  std::vector<std::unique_ptr<Endpoint>> eps_;
  // Written by every push and completion; its own cache line keeps eps_,
  // which every pop reads, from bouncing with it.
  alignas(64) std::atomic<std::int64_t> task_count_{0};
};

// `endpoints` = match processes + 1 (control last). For Central,
// `num_queues` is EngineOptions::task_queues; Steal ignores it and sizes
// each deque at WsDeque::kDefaultCapacity.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int num_queues,
                                          int endpoints);

}  // namespace psme::match
