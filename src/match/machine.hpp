// The machine the shared executor runs on.
//
// The worker pool's task step (match::execute_task), the schedulers, the
// line locks and SpinLock are written once. Real threads run them with no
// Machine installed: machine() is null and every hook below costs one
// thread-local load and a branch. The Multimax simulator (sim/sim_core.hpp)
// runs the same code on fibers, one per virtual CPU, with a Machine that
// prices each step in NS32032 instructions (sim::CostModel) and hands the
// processor to the virtual CPU with the smallest clock at every charge.
// That is a conservative discrete-event simulation over the real code, so
// the simulator cannot drift from the protocol the threads run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace psme::match {

struct ActivationCost;
struct Task;

class Machine {
 public:
  // Each step sim::CostModel prices. The publication steps (QueuePush,
  // DequePublish, HtsPush) make `n` tasks visible the moment their charge
  // returns, so a machine may wake idle CPUs there.
  enum class Cost : std::uint8_t {
    TaskDispatch,
    QueuePush, QueuePop,  // central queues
    // Work stealing: DequePublish is one batch of n tasks; Overflow moves
    // n tasks to or from a deque's overflow list.
    DequePublish, DequePop, StealProbe, StealCas, Overflow,
    LockAcquire, MrswEnter, MrswModification,  // lines
    HtsPush, HtsPop,  // the simulator's hardware task scheduler
  };
  // Activation phases, priced from what the kernel reports they did.
  enum class Phase : std::uint8_t { Root, Terminal, JoinUpdate, JoinProbe };

  virtual void charge(Cost cost, std::size_t n = 1) = 0;
  virtual void charge(Phase phase, const Task& task,
                      const ActivationCost& ac) = 0;
  // A contended SpinLock `word`: parks the CPU until the lock is handed to
  // it and returns the probes a test-and-test-and-set spinner would have
  // made, the failed first one included.
  virtual std::uint64_t spin_wait(std::atomic<std::uint32_t>& word) = 0;
  // Releasing `word`: true when it went to a parked spinner and so stays
  // held.
  virtual bool hand_off(std::atomic<std::uint32_t>& word) = 0;
  // One failed probe of any other spin loop.
  virtual void relax() = 0;
  // A fault-injected stall or lock-hold delay of `magnitude` units.
  virtual void pause(std::uint32_t magnitude) = 0;
  // The calling CPU's clock, for trace timestamps.
  virtual double now_us() const = 0;

 protected:
  ~Machine() = default;
};

// The calling thread's machine, installed by sim::Scheduler::run(); null
// on real threads.
inline constinit thread_local Machine* tl_machine = nullptr;
inline Machine* machine() { return tl_machine; }

inline void charge(Machine::Cost cost, std::size_t n = 1) {
  if (Machine* m = machine()) m->charge(cost, n);
}

// Fault-injected delay: `magnitude` microseconds on real threads, virtual
// instructions on a machine.
inline void pause(std::uint32_t magnitude) {
  if (Machine* m = machine())
    m->pause(magnitude);
  else
    std::this_thread::sleep_for(std::chrono::microseconds(magnitude));
}

}  // namespace psme::match
