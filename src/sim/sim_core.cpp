#include "sim/sim_core.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSME_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define PSME_TSAN_FIBERS 1
#endif
#endif
#ifdef __SANITIZE_ADDRESS__
#define PSME_ASAN_FIBERS 1
#endif
#ifdef __SANITIZE_THREAD__
#define PSME_TSAN_FIBERS 1
#endif
#ifdef PSME_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif
#ifdef PSME_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// psme_sim_switch(save, load) pushes the callee-saved registers and the
// SSE/x87 control words, stores the stack pointer in *save, and pops the
// same frame from `load`. A new stack starts with a frame that returns
// into psme_sim_trampoline, which calls r13(r12).
extern "C" void psme_sim_switch(void** save, void* load);
extern "C" void psme_sim_trampoline();
asm(R"(
  .pushsection .text
  .globl psme_sim_switch
  .type psme_sim_switch, @function
psme_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size psme_sim_switch, .-psme_sim_switch
  .globl psme_sim_trampoline
  .type psme_sim_trampoline, @function
psme_sim_trampoline:
  movq %r12, %rdi
  callq *%r13
  ud2
  .size psme_sim_trampoline, .-psme_sim_trampoline
  .popsection
)");
#else
#include <ucontext.h>
#endif

namespace psme::sim {

// One execution context: run()'s own (no stack of its own), or a virtual
// CPU's mmap'd stack with a guard page below it.
class Fiber {
 public:
  Fiber() {
#ifdef PSME_TSAN_FIBERS
    tsan_ = __tsan_get_current_fiber();
#endif
  }

  // Runs `entry` when first switched to; `entry` leaves through exit_to().
  explicit Fiber(std::function<void()> entry) : entry_(std::move(entry)) {
    map_ = mmap(nullptr, kStackBytes + page(), PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map_ == MAP_FAILED) throw std::bad_alloc();
    mprotect(map_, page(), PROT_NONE);
    bottom_ = static_cast<char*>(map_) + page();
    size_ = kStackBytes;
#ifdef PSME_ASAN_FIBERS
    // A fresh mapping may reuse an old stack's addresses, and its frames'
    // poison with them.
    __asan_unpoison_memory_region(bottom_, size_);
#endif
#if defined(__x86_64__)
    // The frame psme_sim_switch pops; the zeroed slots are rbp, rbx, r14
    // and r15 (mmap'd memory starts zeroed).
    auto* frame = reinterpret_cast<std::uint64_t*>(
        ((reinterpret_cast<std::uintptr_t>(bottom_) + size_) & ~15ull) - 16);
    std::uint32_t csr = 0;
    std::uint16_t cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(csr), "=m"(cw));
    frame[-1] = reinterpret_cast<std::uint64_t>(&psme_sim_trampoline);
    frame[-4] = reinterpret_cast<std::uint64_t>(this);           // r12
    frame[-5] = reinterpret_cast<std::uint64_t>(&Fiber::start);  // r13
    frame[-8] = csr | (static_cast<std::uint64_t>(cw) << 32);
    sp_ = &frame[-8];
#else
    getcontext(&uc_);
    uc_.uc_stack.ss_sp = bottom_;
    uc_.uc_stack.ss_size = size_;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&uc_, reinterpret_cast<void (*)()>(&Fiber::uc_start), 2,
                static_cast<unsigned>(p >> 32), static_cast<unsigned>(p));
#endif
#ifdef PSME_TSAN_FIBERS
    tsan_ = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
    if (!map_) return;
#ifdef PSME_TSAN_FIBERS
    __tsan_destroy_fiber(tsan_);
#endif
    munmap(map_, kStackBytes + page());
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Suspends the running context (*this) and resumes `to`.
  void switch_to(Fiber& to) {
    jump(to, &fake_stack_);
    arrive();
  }
  // Resumes `to` for good.
  [[noreturn]] void exit_to(Fiber& to) {
    jump(to, nullptr);
    std::abort();
  }

 private:
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;
  static std::size_t page() {
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  }

  static void start(Fiber* self) {
    self->arrive();
    self->entry_();
    std::abort();
  }
#if !defined(__x86_64__)
  static void uc_start(unsigned hi, unsigned lo) {
    start(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                   lo));
  }
#endif

  // The sanitizers hear of every switch; ASan learns the host stack's
  // bounds from the first switch away from it.
  void jump(Fiber& to, void** fake_stack) {
    from_ = this;
#ifdef PSME_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_stack, to.bottom_, to.size_);
#else
    (void)fake_stack;
#endif
#ifdef PSME_TSAN_FIBERS
    __tsan_switch_to_fiber(to.tsan_, 0);
#endif
#if defined(__x86_64__)
    psme_sim_switch(&sp_, to.sp_);
#else
    swapcontext(&uc_, &to.uc_);
#endif
  }
  void arrive() {
#ifdef PSME_ASAN_FIBERS
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack_, &bottom, &size);
    if (!from_->map_) {
      from_->bottom_ = const_cast<void*>(bottom);
      from_->size_ = size;
    }
#endif
  }

  std::function<void()> entry_;
  void* map_ = nullptr;
  void* bottom_ = nullptr;
  std::size_t size_ = 0;
#if defined(__x86_64__)
  void* sp_ = nullptr;
#else
  ucontext_t uc_{};
#endif
  void* fake_stack_ = nullptr;
  void* tsan_ = nullptr;
  // The context the running one was entered from, on this host thread.
  static inline thread_local Fiber* from_ = nullptr;
};

SimCpu::SimCpu() = default;
SimCpu::~SimCpu() = default;

Scheduler::Scheduler(const CostModel& cost)
    : cost_(cost), host_(std::make_unique<Fiber>()) {}

Scheduler::~Scheduler() = default;

SimCpu& Scheduler::add_cpu() {
  cpus_.push_back(std::make_unique<SimCpu>());
  return *cpus_.back();
}

void Scheduler::start(SimCpu& cpu, std::function<void()> body) {
  cpu.body = std::move(body);
  cpu.fiber = std::make_unique<Fiber>([this, &cpu] { fiber_main(&cpu); });
  ready(cpu);
}

void Scheduler::ready(SimCpu& cpu) { heap_.push(Event{cpu.now, seq_++, &cpu}); }

Fiber& Scheduler::next() {
  if (heap_.empty() || error_) {
    current_ = nullptr;
    return *host_;
  }
  current_ = heap_.top().cpu;
  heap_.pop();
  return *current_->fiber;
}

void Scheduler::run() {
  match::Machine* const outer = std::exchange(match::tl_machine, this);
  if (!heap_.empty()) host_->switch_to(next());
  match::tl_machine = outer;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Scheduler::dispatch() {
  Fiber& from = *current_->fiber;
  Fiber& to = next();
  if (&to != &from) from.switch_to(to);
}

void Scheduler::fiber_main(SimCpu* cpu) {
  try {
    cpu->body();
  } catch (...) {
    error_ = std::current_exception();  // the other CPUs are abandoned
  }
  cpu->fiber->exit_to(next());
}

void Scheduler::spend(VTime n) {
  SimCpu& c = *current_;
  c.now += n;
  // Still the smallest clock (ties go to the CPU queued first): keep going.
  if (heap_.empty() || c.now < heap_.top().t) return;
  ready(c);
  dispatch();
}

void Scheduler::sleep(SleepList& list) {
  list.sleepers.push_back(current_);
  dispatch();
}

void Scheduler::wake_one(SleepList& list, VTime at) {
  if (list.sleepers.empty()) return;
  SimCpu* s = list.sleepers.front();
  list.sleepers.pop_front();
  s->now = std::max(s->now, at) + cost_.wake_latency;
  ready(*s);
}

void Scheduler::wake_all(SleepList& list, VTime at) {
  while (!list.sleepers.empty()) wake_one(list, at);
}

std::uint64_t Scheduler::spin_wait(std::atomic<std::uint32_t>& word) {
  std::uint64_t probes = 0;
  spinners_[&word].push_back(Spinner{current_, current_->now, &probes});
  dispatch();  // until hand_off() readies this CPU
  return probes;
}

bool Scheduler::hand_off(std::atomic<std::uint32_t>& word) {
  const auto it = spinners_.find(&word);
  if (it == spinners_.end()) return false;
  std::deque<Spinner>& q = it->second;
  const VTime now = current_->now;
  const VTime p = cost_.probe_interval;
  // A spinner probes at arrival, arrival + p, ...: the first probe at or
  // after the release wins; ties go to the earlier arrival.
  auto next_probe = [&](const Spinner& s) {
    return now <= s.arrival ? s.arrival
                            : s.arrival + p * ((now - s.arrival + p - 1) / p);
  };
  auto best = q.begin();
  for (auto s = q.begin() + 1; s != q.end(); ++s)
    if (next_probe(*s) < next_probe(*best)) best = s;
  const Spinner s = *best;
  const VTime t = next_probe(s);
  q.erase(best);
  if (q.empty()) spinners_.erase(it);
  *s.probes = (t - s.arrival) / p + 1;
  s.cpu->now = t;
  ready(*s.cpu);
  return true;
}

void Scheduler::charge(Cost cost, std::size_t n) {
  const CostModel& m = cost_;
  const auto k = static_cast<VTime>(n);
  VTime price = 0;
  switch (cost) {
    case Cost::TaskDispatch: price = m.task_dispatch; break;
    case Cost::QueuePush: price = m.queue_push * k; break;
    case Cost::QueuePop: price = m.queue_pop; break;
    case Cost::DequePublish:
      price = m.deque_publish + m.deque_task_copy * k;
      break;
    case Cost::DequePop: price = m.deque_pop; break;
    case Cost::StealProbe: price = m.steal_probe; break;
    case Cost::StealCas: price = m.steal_cas; break;
    case Cost::Overflow: price = m.overflow_op * k; break;
    case Cost::LockAcquire: price = m.lock_acquire; break;
    case Cost::MrswEnter: price = m.mrsw_enter; break;
    case Cost::MrswModification: price = m.mrsw_modification; break;
    case Cost::HtsPush: price = m.hts_op * k; break;
    case Cost::HtsPop: price = m.hts_op; break;
  }
  spend(price);
  if (cost != Cost::QueuePush && cost != Cost::DequePublish &&
      cost != Cost::HtsPush)
    return;
  ++publications_;
  if (!publish_list_) return;
  if (broadcast_) {
    wake_all(*publish_list_, current_->now);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      wake_one(*publish_list_, current_->now);
  }
}

void Scheduler::charge(Phase phase, const match::Task& task,
                       const match::ActivationCost& ac) {
  switch (phase) {
    case Phase::Root: spend(cost_.root_charge(ac)); break;
    case Phase::Terminal: spend(cost_.terminal_update); break;
    case Phase::JoinUpdate:
      spend(cost_.join_update_charge(ac, task.sign));
      break;
    case Phase::JoinProbe: spend(cost_.join_probe_charge(ac)); break;
  }
}

}  // namespace psme::sim
