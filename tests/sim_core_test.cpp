// Unit tests for the discrete-event substrate: fiber ordering by virtual
// clock, real spin locks probed in virtual time, sleep/wake, and the
// match::Machine the executor charges, and the cost model's pricing of
// kernel activations.
#include "sim/sim_core.hpp"

#include <gtest/gtest.h>

#include "analysis/parallelism.hpp"
#include "common/spinlock.hpp"
#include "common/symbol_table.hpp"
#include "match/kernel.hpp"
#include "rete/builder.hpp"
#include "runtime/working_memory.hpp"
#include "sim/cost_model.hpp"

namespace psme::sim {
namespace {

using Cost = match::Machine::Cost;

struct Harness {
  CostModel cost;
  Scheduler sched{cost};
  std::vector<int> log;
};

TEST(SimScheduler, ResumesInTimeOrder) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SimCpu& b = h.sched.add_cpu();
  b.now = 5;  // b starts later

  auto prog = [&h](int id, VTime step) {
    return [&h, id, step] {
      for (int i = 0; i < 3; ++i) {
        h.log.push_back(id);
        h.sched.spend(step);
      }
    };
  };
  h.sched.start(a, prog(1, 10));  // at t = 0, 10, 20
  h.sched.start(b, prog(2, 10));  // at t = 5, 15, 25
  h.sched.run();
  EXPECT_EQ(h.log, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(a.now, 30u);
  EXPECT_EQ(b.now, 35u);
}

TEST(SimScheduler, TiesBreakBySequence) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SimCpu& b = h.sched.add_cpu();
  auto prog = [&h](int id) {
    return [&h, id] {
      h.log.push_back(id);
      h.sched.spend(1);
      h.log.push_back(id);
    };
  };
  h.sched.start(a, prog(1));
  h.sched.start(b, prog(2));
  h.sched.run();
  // Same timestamps: queue order decides, deterministically.
  EXPECT_EQ(h.log, (std::vector<int>{1, 2, 1, 2}));
}

TEST(SimLock, UncontendedAcquireIsOneProbe) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SpinLock lock;
  std::uint64_t probes = 0;
  h.sched.start(a, [&] {
    probes = lock.lock();
    h.sched.charge(Cost::LockAcquire);
    h.sched.spend(10);
    lock.unlock();
  });
  h.sched.run();
  EXPECT_EQ(probes, 1u);
  EXPECT_TRUE(lock.try_lock());
  // lock_acquire cost + critical section.
  EXPECT_EQ(a.now, h.cost.lock_acquire + 10);
}

TEST(SimLock, WaiterAccountsSpinProbesAndWaitsForRelease) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SimCpu& b = h.sched.add_cpu();
  SpinLock lock;
  std::uint64_t probes_b = 0;
  VTime b_acquired_at = 0;
  h.sched.start(a, [&] {
    lock.lock();
    h.sched.charge(Cost::LockAcquire);
    h.sched.spend(100);  // long critical section
    lock.unlock();
  });
  h.sched.start(b, [&] {
    h.sched.spend(1);  // arrive just after the holder
    probes_b = lock.lock();
    h.sched.charge(Cost::LockAcquire);
    b_acquired_at = b.now;
    lock.unlock();
  });
  h.sched.run();
  // b spun for ~100 instructions at probe_interval granularity.
  EXPECT_GE(probes_b, 100 / h.cost.probe_interval);
  EXPECT_GE(b_acquired_at, h.cost.lock_acquire + 100);
  EXPECT_TRUE(lock.try_lock());
}

TEST(SimLock, ReleaseGrantsEarliestNextProbe) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SimCpu& b = h.sched.add_cpu();
  SimCpu& c = h.sched.add_cpu();
  SpinLock lock;
  std::vector<int> order;
  h.sched.start(a, [&] {
    lock.lock();
    h.sched.spend(50);
    lock.unlock();
  });
  auto waiter = [&](int id, VTime arrive) {
    return [&, id, arrive] {
      h.sched.spend(arrive);
      lock.lock();
      order.push_back(id);
      h.sched.spend(5);
      lock.unlock();
    };
  };
  h.sched.start(b, waiter(2, 30));  // arrives second
  h.sched.start(c, waiter(1, 10));  // arrives first
  h.sched.run();
  ASSERT_EQ(order.size(), 2u);
  // The earlier arrival's spin probe lands first.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SimSleep, WakeOneResumesFifoWithLatency) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  SimCpu& b = h.sched.add_cpu();
  SimCpu& waker = h.sched.add_cpu();
  SleepList list;
  std::vector<int> order;
  auto sleeper = [&](int id) {
    return [&, id] {
      h.sched.sleep(list);
      order.push_back(id);
    };
  };
  h.sched.start(a, sleeper(1));
  h.sched.start(b, sleeper(2));
  h.sched.start(waker, [&] {
    h.sched.spend(100);
    h.sched.wake_one(list, waker.now);
    h.sched.spend(50);
    h.sched.wake_one(list, waker.now);
  });
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(a.now, 100 + h.cost.wake_latency);
  EXPECT_EQ(b.now, 150 + h.cost.wake_latency);
}

// An ordinary call chain can block at any depth and still return its
// values.
TEST(SimFiber, NestedCallsReturnValuesAndShareTheClock) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  auto inner = [&](int x) {
    h.sched.spend(10);
    return x * 2;
  };
  int result = 0;
  h.sched.start(a, [&] { result = inner(inner(21)); });
  h.sched.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(a.now, 20u);
}

TEST(SimMachine, InstalledOnlyWhileRunning) {
  Harness h;
  SimCpu& a = h.sched.add_cpu();
  match::Machine* inside = nullptr;
  h.sched.start(a, [&] {
    inside = match::machine();
    match::charge(Cost::TaskDispatch);
  });
  EXPECT_EQ(match::machine(), nullptr);
  h.sched.run();
  EXPECT_EQ(match::machine(), nullptr);
  EXPECT_EQ(inside, &h.sched);
  EXPECT_EQ(a.now, h.cost.task_dispatch);
}

TEST(SimMachine, PublicationWakesOneSleeperPerTask) {
  Harness h;
  SleepList idle;
  h.sched.wake_on_publish(&idle, /*broadcast=*/false);
  std::vector<int> woken;
  for (int id = 0; id < 3; ++id)
    h.sched.start(h.sched.add_cpu(), [&, id] {
      h.sched.sleep(idle);
      woken.push_back(id);
    });
  SimCpu& pusher = h.sched.add_cpu();
  h.sched.start(pusher, [&] {
    h.sched.charge(Cost::DequePublish, 2);  // two tasks in one batch
    EXPECT_EQ(h.sched.publications(), 1u);
  });
  h.sched.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1}));
  EXPECT_EQ(idle.sleepers.size(), 1u);
  EXPECT_EQ(pusher.now, h.cost.deque_publish + 2 * h.cost.deque_task_copy);
}

TEST(SimCostModel, SecondsConversion) {
  CostModel cm;
  cm.mips = 0.75;
  EXPECT_DOUBLE_EQ(cm.to_seconds(750000), 1.0);
  EXPECT_DOUBLE_EQ(cm.to_seconds(0), 0.0);
  cm.mips = 7.5;
  EXPECT_DOUBLE_EQ(cm.to_seconds(750000), 0.1);
}

// One root activation and one join probe of a two-CE rule, run through the
// kernel with an ActivationCost, then through an engine: the root is
// priced per alpha test it evaluated and the probe per opposite-memory
// candidate it examined, at the paper's 3 instructions each (Section 3.1).
TEST(SimCostModel, ActivationChargesUseThePapersPerTestPrice) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x c d)
(literalize b y)
(p pair (a ^x <v> ^c red ^d 3) (b ^y <v>) --> (halt))
)");
  const auto net = rete::build_network(program);
  WorkingMemory wm(program);
  ConflictSet cs(program);
  match::HashTokenTable left(64), right(64);
  match::BumpArena arena;
  MatchStats stats;
  match::MatchContext ctx;
  ctx.arena = &arena;
  ctx.stats = &stats;
  match::WorldContext world;
  world.left_table = &left;
  world.right_table = &right;
  world.conflict_set = &cs;
  auto root = [](const Wme* w) {
    match::Task t;
    t.kind = match::TaskKind::Root;
    t.sign = +1;
    t.wme = w;
    return t;
  };

  // Seed the right memory with one matching b.
  std::vector<match::Task> out;
  match::process_root(ctx, world, *net,
                      root(wm.make(intern("b"), {Value::integer(1)})), out);
  ASSERT_EQ(out.size(), 1u);
  const match::Task right_act = out[0];
  match::process_join(ctx, world, right_act, out);

  const CostModel cm;
  EXPECT_EQ(cm.alpha_test, 3u);
  EXPECT_EQ(cm.join_per_examined, 3u);

  out.clear();
  match::ActivationCost rc;
  match::process_root(
      ctx, world, *net,
      root(wm.make(intern("a"),
                   {Value::integer(1), sym("red"), Value::integer(3)})),
      out, &rc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(rc.alpha_tests, 2u);  // ^c red, ^d 3
  EXPECT_EQ(cm.root_charge(rc, out.size()),
            cm.root_base + cm.alpha_test * rc.alpha_tests +
                cm.alpha_emit * out.size());

  const match::Task left_act = out[0];
  out.clear();
  match::ActivationCost jc;
  match::process_join(ctx, world, left_act, out, &jc);
  ASSERT_EQ(out.size(), 1u);  // the pair reaches the terminal
  EXPECT_EQ(jc.opp_examined, 1u);
  EXPECT_EQ(jc.emissions, 1u);
  EXPECT_EQ(cm.join_probe_charge(jc),
            cm.join_probe_base + cm.join_per_examined * jc.opp_examined +
                cm.join_per_emission * jc.emissions +
                cm.emit_per_wme * jc.emitted_wmes);

  // The same two wmes through an engine (the parallelism profiler prices
  // each task it runs): five tasks, two alpha tests, one examined
  // candidate, one pair of two wmes.
  const analysis::ParallelismProfile prof = analysis::profile_parallelism(
      program, {"(b ^y 1)", "(a ^x 1 ^c red ^d 3)"}, cm);
  EXPECT_EQ(prof.total_tasks, 5u);
  EXPECT_EQ(prof.total_work,
            5 * cm.task_dispatch + 2 * cm.root_base + 2 * cm.alpha_test +
                2 * cm.alpha_emit +
                2 * (cm.hash_base + cm.hash_per_slot + cm.mem_insert) +
                2 * cm.join_probe_base + cm.join_per_examined +
                cm.join_per_emission + 2 * cm.emit_per_wme +
                cm.terminal_update);
}

}  // namespace
}  // namespace psme::sim
