// Discrete-event substrate for the Multimax simulator: virtual CPUs on
// fibers.
//
// Each virtual CPU runs ordinary code on its own fiber (an mmap'd stack
// with a guard page) and carries a virtual clock in NS32032 instructions.
// One host thread runs every fiber. Whenever the running CPU advances its
// clock it hands the processor to the ready CPU with the smallest clock
// (ties go to the one queued first), so CPUs interleave deterministically
// at their charge points. Code between two charges runs atomically at the
// CPU's current time, which is why the fibers can run the real executor —
// schedulers, line locks and all — and share its data structures directly.
//
// The Scheduler is also the match::Machine the executor charges while
// run() is on the stack: each Machine::Cost is priced by the CostModel, and
// a publication wakes the sleepers registered with wake_on_publish(). A
// contended SpinLock parks its CPU; the release hands the lock straight to
// the spinner whose next probe (every probe_interval since it arrived)
// comes first, and charges it the probes spun. Handing over, rather than
// letting newcomers barge between a release and the next probe, keeps a
// deterministic schedule from starving a spinner forever.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "match/machine.hpp"
#include "sim/cost_model.hpp"

namespace psme::sim {

class Fiber;

struct SimCpu {
  VTime now = 0;
  std::unique_ptr<Fiber> fiber;
  std::function<void()> body;

  SimCpu();
  ~SimCpu();
};

// FIFO of CPUs sleeping on a condition (no runnable task, TaskCount > 0).
struct SleepList {
  std::deque<SimCpu*> sleepers;
};

class Scheduler final : public match::Machine {
 public:
  explicit Scheduler(const CostModel& cost);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimCpu& add_cpu();
  // Runs `body` on `cpu`'s fiber, starting at cpu.now.
  void start(SimCpu& cpu, std::function<void()> body);
  // Runs the CPUs, smallest clock first, until none is ready, with this
  // scheduler installed as the thread's match::Machine. Rethrows the first
  // exception a body let escape (the other fibers are then abandoned).
  void run();

  // --- the running CPU ---------------------------------------------------
  SimCpu& current() { return *current_; }
  // Advances the running CPU's clock by `n` and yields to the smallest.
  void spend(VTime n);
  // Parks the running CPU on `list` until a wake_one/wake_all.
  void sleep(SleepList& list);

  // Readies the first sleeper at max(its clock, at) + wake_latency.
  void wake_one(SleepList& list, VTime at);
  void wake_all(SleepList& list, VTime at);

  // Sleepers to wake when the executor publishes tasks: one per task, or
  // all of them when `broadcast`.
  void wake_on_publish(SleepList* list, bool broadcast) {
    publish_list_ = list;
    broadcast_ = broadcast;
  }
  // Publication charges so far: a CPU that saw this change while it looked
  // for work must look again instead of sleeping.
  std::uint64_t publications() const { return publications_; }

  // --- match::Machine ------------------------------------------------------
  void charge(Cost cost, std::size_t n = 1) override;
  void charge(Phase phase, const match::Task& task,
              const match::ActivationCost& ac) override;
  std::uint64_t spin_wait(std::atomic<std::uint32_t>& word) override;
  bool hand_off(std::atomic<std::uint32_t>& word) override;
  void relax() override { spend(cost_.probe_interval); }
  void pause(std::uint32_t magnitude) override { spend(magnitude); }
  double now_us() const override {
    return cost_.to_seconds(current_->now) * 1e6;
  }

 private:
  struct Event {
    VTime t;
    std::uint64_t seq;
    SimCpu* cpu;
    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  // A CPU parked on a contended SpinLock.
  struct Spinner {
    SimCpu* cpu;
    VTime arrival;
    std::uint64_t* probes;
  };

  void ready(SimCpu& cpu);
  // Pops the next ready CPU and makes it current; run()'s context when
  // none is ready or a body threw.
  Fiber& next();
  // Switches from the running CPU to the next ready one. Returns when the
  // running CPU is resumed.
  void dispatch();
  void fiber_main(SimCpu* cpu);

  CostModel cost_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
  std::vector<std::unique_ptr<SimCpu>> cpus_;
  SimCpu* current_ = nullptr;
  std::unique_ptr<Fiber> host_;  // run()'s own context
  std::exception_ptr error_;
  std::unordered_map<const void*, std::deque<Spinner>> spinners_;
  SleepList* publish_list_ = nullptr;
  bool broadcast_ = false;
  std::uint64_t publications_ = 0;
};

}  // namespace psme::sim
