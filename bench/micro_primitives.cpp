// Google-benchmark micro-benchmarks for the concurrency primitives: the
// TTAS spin lock, the task-queue set, the hash-line lock schemes, and the
// conflict set's terminal updates and resolution scan.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#include "common/spinlock.hpp"
#include "common/symbol_table.hpp"
#include "match/line_locks.hpp"
#include "match/memory.hpp"
#include "match/task_queue.hpp"
#include "runtime/conflict_set.hpp"
#include "runtime/working_memory.hpp"

namespace psme::match {
namespace {

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.lock());
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_SpinLockContended(benchmark::State& state) {
  static SpinLock lock;
  std::uint64_t local = 0;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(++local);
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockContended)->Threads(1)->Threads(2)->Threads(4);

void BM_TaskQueuePushPop(benchmark::State& state) {
  TaskQueueSet queues(static_cast<int>(state.range(0)));
  MatchStats stats;
  Task t;
  t.kind = TaskKind::Root;
  for (auto _ : state) {
    queues.push(t, 0, stats);
    Task out;
    benchmark::DoNotOptimize(queues.try_pop(&out, 0, stats));
    queues.task_done();
  }
  state.counters["probes/op"] =
      static_cast<double>(stats.queue_probes) /
      static_cast<double>(stats.queue_acquisitions);
}
BENCHMARK(BM_TaskQueuePushPop)->Arg(1)->Arg(4)->Arg(8);

void BM_LineLockSimple(benchmark::State& state) {
  LineLocks locks(1024, LockScheme::Simple);
  MatchStats stats;
  std::uint32_t line = 0;
  for (auto _ : state) {
    locks.lock_exclusive(line & 1023, Side::Left, stats);
    locks.unlock_exclusive(line & 1023);
    ++line;
  }
}
BENCHMARK(BM_LineLockSimple);

void BM_LineLockMrswEnterLeave(benchmark::State& state) {
  LineLocks locks(1024, LockScheme::Mrsw);
  MatchStats stats;
  std::uint32_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locks.try_enter(line & 1023, Side::Left, stats));
    locks.lock_modification(line & 1023, Side::Left, stats);
    locks.unlock_modification(line & 1023);
    locks.leave(line & 1023);
    ++line;
  }
}
BENCHMARK(BM_LineLockMrswEnterLeave);

// A conflict set holding `live` instantiations of three-wme tokens spread
// over four productions, plus `spare` tokens that are not in it.
struct ConflictSetFixture {
  explicit ConflictSetFixture(std::size_t live, std::size_t spare = 0)
      : program(ops5::Program::from_source(R"(
(literalize a x)
(p p0 (a ^x <v>) (a ^x <w>) (a ^x <u>) --> (halt))
(p p1 (a ^x <v>) (a ^x <w>) (a ^x <u>) --> (halt))
(p p2 (a ^x <v>) (a ^x <w>) (a ^x <u>) --> (halt))
(p p3 (a ^x <v>) (a ^x <w>) (a ^x <u>) --> (halt))
)")),
        wm(program),
        cs(program) {
    std::int64_t x = 0;
    for (std::size_t i = 0; i < live + spare; ++i) {
      const Token* t = nullptr;
      for (int k = 0; k < 3; ++k)
        t = arena.make_token(t, wm.make(intern("a"), {Value::integer(x++)}));
      tokens.push_back(t);
    }
    for (std::size_t i = 0; i < live; ++i)
      cs.insert(static_cast<std::uint32_t>(i % 4), tokens[i]);
  }

  ops5::Program program;
  WorkingMemory wm;
  ConflictSet cs;
  BumpArena arena;
  std::vector<const Token*> tokens;
};

// One terminal conjugate pair per iteration on the token API, over a set of
// state.range(0) live instantiations: `+` then `-` on even iterations, `-`
// (parked) then `+` (annihilates) on odd ones.
void BM_ConflictSetInsertRemove(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSpare = 64;
  ConflictSetFixture f(live, kSpare);
  std::size_t i = 0;
  for (auto _ : state) {
    const Token* t = f.tokens[live + i % kSpare];
    const auto prod = static_cast<std::uint32_t>(i % 4);
    if (i & 1) {
      f.cs.remove(prod, t);
      f.cs.insert(prod, t);
    } else {
      f.cs.insert(prod, t);
      f.cs.remove(prod, t);
    }
    ++i;
  }
  if (f.cs.size() != live || f.cs.pending_deletes() != 0)
    state.SkipWithError("conflict set did not return to its start state");
}
BENCHMARK(BM_ConflictSetInsertRemove)->Arg(16)->Arg(88)->Arg(512);

// The resolution scan over state.range(0) live, unfired instantiations
// (peek runs select_and_fire's scan and copy without firing).
void BM_ConflictSetSelect(benchmark::State& state) {
  ConflictSetFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(f.cs.peek(CrStrategy::Lex));
}
BENCHMARK(BM_ConflictSetSelect)->Arg(16)->Arg(88)->Arg(512);

}  // namespace
}  // namespace psme::match

BENCHMARK_MAIN();
