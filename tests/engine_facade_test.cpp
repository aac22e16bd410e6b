// The Engine facade: every execution mode behind one interface, all
// agreeing on results.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "common/symbol_table.hpp"

namespace psme {
namespace {

constexpr const char* kProgram = R"(
(literalize task id prio state)
(p pick-highest
  (task ^id <i> ^prio <p> ^state ready)
  - (task ^state ready ^prio > <p>)
  -->
  (modify 1 ^state done))
)";

std::vector<std::string> run_mode(ExecutionMode mode) {
  const auto program = ops5::Program::from_source(kProgram);
  EngineConfig config;
  config.mode = mode;
  if (mode == ExecutionMode::ParallelThreads ||
      mode == ExecutionMode::SimulatedMultimax) {
    config.options.match_processes = 3;
    config.options.task_queues = 2;
  }
  Engine engine(program, config);
  engine.make("(task ^id a ^prio 2 ^state ready)");
  engine.make("(task ^id b ^prio 9 ^state ready)");
  engine.make("(task ^id c ^prio 5 ^state ready)");
  engine.run();
  // Tasks complete highest-priority first; render the completion order by
  // reading the trace's first timetag back through the wm is fragile, so
  // render final state + firing count instead.
  std::vector<std::string> out;
  out.push_back("firings=" + std::to_string(engine.stats().firings));
  for (const Wme* w : engine.wm().snapshot())
    out.push_back(wme_to_string(*w, program));
  return out;
}

TEST(EngineFacade, AllModesProduceTheSameResult) {
  const auto reference = run_mode(ExecutionMode::Sequential);
  ASSERT_EQ(reference.front(), "firings=3");
  for (const auto mode :
       {ExecutionMode::LispStyle, ExecutionMode::ParallelThreads,
        ExecutionMode::SimulatedMultimax, ExecutionMode::Treat}) {
    EXPECT_EQ(run_mode(mode), reference)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(EngineFacade, NegationWithPredicateSelectsMaximum) {
  // The rule encodes argmax via a negated CE with a > predicate; check the
  // firing order is descending priority (LEX sees the most recent state
  // change, but the negation forces the max).
  const auto program = ops5::Program::from_source(kProgram);
  EngineConfig config;
  Engine engine(program, config);
  engine.make("(task ^id a ^prio 2 ^state ready)");
  engine.make("(task ^id b ^prio 9 ^state ready)");
  engine.make("(task ^id c ^prio 5 ^state ready)");
  engine.run();
  const auto& trace = engine.trace();
  ASSERT_EQ(trace.size(), 3u);
  // Firing order by wme timetag: b (2), then c (3), then a (1).
  EXPECT_EQ(trace[0].timetags[0], 2u);
  EXPECT_EQ(trace[1].timetags[0], 3u);
  EXPECT_EQ(trace[2].timetags[0], 1u);
}

TEST(EngineFacade, RemoveByTimetagAndErrors) {
  const auto program = ops5::Program::from_source(kProgram);
  Engine engine(program, EngineConfig{});
  const Wme* w = engine.make("(task ^id a ^prio 1 ^state ready)");
  engine.remove(w->timetag);
  EXPECT_THROW(engine.remove(w->timetag), std::invalid_argument);
  engine.run();
  EXPECT_EQ(engine.stats().firings, 0u);
}

// Every name of an axis parses to its table value, and name_of prints the
// value back as the first name the table gives it (an alias prints as
// that canonical name).
template <typename V, std::size_t N>
void expect_round_trip(const Vocabulary<V, N>& vocab) {
  for (const Named<V>& n : vocab.names) {
    const V value = vocab.parse(n.name);
    EXPECT_TRUE(value == n.value) << n.name;
    std::string_view first;
    for (const Named<V>& m : vocab.names)
      if (first.empty() && m.value == value) first = m.name;
    EXPECT_EQ(vocab.name_of(value), first) << n.name;
    EXPECT_TRUE(vocab.parse(vocab.name_of(value)) == value) << n.name;
  }
}

TEST(EngineVocabulary, EveryNameRoundTripsThroughParseAndNameOf) {
  expect_round_trip(kModeNames);
  expect_round_trip(kSchedulerNames);
  expect_round_trip(kLockSchemeNames);
  expect_round_trip(kStrategyNames);
}

TEST(EngineVocabulary, ModeNamesPickEngineAndMemory) {
  using match::MemoryStrategy;
  EXPECT_EQ(kModeNames.parse("vs1"),
            (EngineMode{ExecutionMode::Sequential, MemoryStrategy::List}));
  EXPECT_EQ(kModeNames.parse("seq"),
            (EngineMode{ExecutionMode::Sequential, MemoryStrategy::Hash}));
  EXPECT_EQ(kModeNames.parse("vs2"), kModeNames.parse("seq"));
  EXPECT_EQ(kModeNames.name_of(kModeNames.parse("vs2")), "seq");
  EXPECT_EQ(kModeNames.parse("lisp"), EngineMode{ExecutionMode::LispStyle});
  EXPECT_EQ(kModeNames.parse("threads"),
            EngineMode{ExecutionMode::ParallelThreads});
  EXPECT_EQ(kModeNames.parse("sim"),
            EngineMode{ExecutionMode::SimulatedMultimax});
  EXPECT_EQ(kModeNames.parse("treat"), EngineMode{ExecutionMode::Treat});
  EXPECT_EQ(kStrategyNames.parse("mea"), CrStrategy::Mea);
}

TEST(EngineVocabulary, UnknownNameThrowsListingTheAcceptedNames) {
  const auto expect_lists = [](const auto& vocab, const std::string& bad) {
    try {
      vocab.parse(bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      for (const auto& n : vocab.names)
        EXPECT_NE(what.find(std::string(n.name)), std::string::npos) << what;
    }
  };
  expect_lists(kModeNames, "bogus");
  expect_lists(kSchedulerNames, "fifo");
  expect_lists(kLockSchemeNames, "seqlock");
  expect_lists(kStrategyNames, "LEX");
}

TEST(EngineVocabulary, ParallelModesNeedAMatchProcess) {
  const auto program = ops5::Program::from_source(kProgram);
  for (const auto mode :
       {ExecutionMode::ParallelThreads, ExecutionMode::SimulatedMultimax}) {
    EngineConfig config;
    config.mode = mode;
    EXPECT_THROW(validate_options(config.options, mode),
                 std::invalid_argument);
    EXPECT_THROW(Engine(program, config), std::invalid_argument);
    config.options.match_processes = 1;
    EXPECT_NO_THROW(Engine(program, config));
  }
}

TEST(EngineVocabulary, SchedulerOfFollowsEachEnginesDefault) {
  EngineOptions options;
  EXPECT_EQ(scheduler_of(options, ExecutionMode::ParallelThreads),
            kThreadedScheduler);
  EXPECT_EQ(scheduler_of(options, ExecutionMode::SimulatedMultimax),
            kSimScheduler);
  options.scheduler = match::SchedulerKind::Central;
  EXPECT_EQ(scheduler_of(options, ExecutionMode::ParallelThreads),
            match::SchedulerKind::Central);
}

}  // namespace
}  // namespace psme
