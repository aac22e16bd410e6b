// Test-and-test-and-set spin lock with probe accounting.
//
// This is the synchronization primitive the paper uses throughout (Section
// 3.2): a process first *tests* the lock word with ordinary reads (spinning
// in its own cache) and only issues the interlocked test-and-set when the
// word looks free. `lock()` returns the number of probes performed — an
// uncontended acquisition returns 1 — which is exactly the paper's
// contention metric for Tables 4-7 and 4-9.
//
// Deviation from the paper: the Encore gave each match process a dedicated
// CPU, so pure spinning was harmless. On a time-shared (possibly single-CPU)
// host a pure spinner can burn its whole quantum while the lock holder is
// descheduled, so after `kYieldThreshold` probes we yield the processor.
// Probe counts are unaffected by the yields.
//
// Under a match::Machine (the Multimax simulator) a contended lock() parks
// the virtual CPU in Machine::spin_wait and unlock() hands the lock to the
// parked spinner whose next probe would come first, so probe counts follow
// the same test-and-test-and-set cadence in virtual time.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "match/machine.hpp"

namespace psme {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  // Acquire; returns probe count (>= 1).
  std::uint64_t lock() {
    if (try_lock()) return 1;
    if (match::Machine* m = match::machine()) return m->spin_wait(word_);
    std::uint64_t probes = 1;
    for (;;) {
      // Spin out of cache until the word looks free.
      std::uint64_t spins = 0;
      while (word_.load(std::memory_order_relaxed)) {
        ++probes;
        cpu_relax();
        if (++spins >= kYieldThreshold) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      ++probes;
      if (try_lock()) return probes;
    }
  }

  bool try_lock() {
    return !word_.load(std::memory_order_relaxed) &&
           !word_.exchange(1, std::memory_order_acquire);
  }

  void unlock() {
    if (match::Machine* m = match::machine())
      if (m->hand_off(word_)) return;
    word_.store(0, std::memory_order_release);
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  static constexpr std::uint64_t kYieldThreshold = 64;
  std::atomic<std::uint32_t> word_{0};
};

// RAII guard that adds the acquisition's probe count to a caller counter.
class SpinGuard {
 public:
  SpinGuard(SpinLock& lock, std::uint64_t* probe_accum = nullptr)
      : lock_(lock) {
    const std::uint64_t probes = lock_.lock();
    if (probe_accum) *probe_accum += probes;
  }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace psme
