// Engine: the library's front door.
//
// Picks an execution mode and constructs the matching engine behind a
// single interface:
//
//   auto program = psme::ops5::Program::from_source(src);
//   psme::Engine engine(program, {.mode = psme::ExecutionMode::Sequential});
//   engine.make("(goal ^type find-block ^color red)");
//   auto result = engine.run();
//
// Modes:
//  - Sequential:        vs1/vs2 uniprocessor engine (options.memory picks)
//  - LispStyle:         the interpreted Franz-Lisp-equivalent baseline
//  - ParallelThreads:   control thread + k match std::threads (PSM-E)
//  - SimulatedMultimax: PSM-E on the virtual-time Encore simulator
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "engine/engine_base.hpp"
#include "sim/sim_engine.hpp"

namespace psme {

enum class ExecutionMode : std::uint8_t {
  Sequential,
  LispStyle,
  ParallelThreads,
  SimulatedMultimax,
  Treat,  // Miranker's TREAT algorithm (no beta memories)
};

struct EngineConfig {
  ExecutionMode mode = ExecutionMode::Sequential;
  EngineOptions options;
  sim::SimConfig sim;  // used by SimulatedMultimax only
};

// True for the modes whose match runs on match processes behind a task
// scheduler: ParallelThreads and SimulatedMultimax.
bool is_parallel(ExecutionMode mode);

// Rejects nonsensical option combinations with std::invalid_argument
// instead of silently falling back: worlds > 0 on engines that do not run
// the shared match kernel (LispStyle, Treat) or on the vs1 list memories,
// vs1 on the parallel engines, parallel engines without a match process,
// and negative process/queue counts. Engine's constructor calls it (and
// also rejects worlds > 1: batched execution needs world::BatchEngine), as
// do ParallelEngine, sim::SimEngine and world::BatchEngine.
void validate_options(const EngineOptions& options, ExecutionMode mode);

// The task-scheduling discipline `mode` runs under `options`: the explicit
// EngineOptions::scheduler, else kThreadedScheduler on real threads
// (ParallelThreads; threaded world::BatchEngine asks as that mode) and
// kSimScheduler, the paper's central queues, otherwise.
match::SchedulerKind scheduler_of(const EngineOptions& options,
                                  ExecutionMode mode);

// --- The engine vocabulary --------------------------------------------
// The names tools and replay logs use for each configuration axis: one
// table per axis, each name paired with its value. A mode name also picks
// the sequential engine's memories: vs1 is per-node lists, seq and vs2 the
// global hash tables. parse throws std::invalid_argument listing the
// accepted names; name_of returns a value's first name in its table
// ("seq", not its alias "vs2").
template <typename V>
struct Named {
  std::string_view name;
  V value;
};

template <typename V, std::size_t N>
struct Vocabulary {
  std::string_view axis;  // for error messages
  Named<V> names[N];

  V parse(std::string_view name) const {
    for (const Named<V>& n : names)
      if (n.name == name) return n.value;
    std::string msg = "bad " + std::string(axis) + " '" + std::string(name) +
                      "' (accepted:";
    for (const Named<V>& n : names) msg += " " + std::string(n.name);
    throw std::invalid_argument(msg + ")");
  }
  std::string_view name_of(V value) const {
    for (const Named<V>& n : names)
      if (n.value == value) return n.name;
    throw std::invalid_argument("no " + std::string(axis) + " name");
  }
};

struct EngineMode {
  ExecutionMode mode = ExecutionMode::Sequential;
  match::MemoryStrategy memory = match::MemoryStrategy::Hash;
  bool operator==(const EngineMode&) const = default;
};

inline constexpr Vocabulary<EngineMode, 7> kModeNames{
    "mode",
    {{"seq", {ExecutionMode::Sequential, match::MemoryStrategy::Hash}},
     {"vs2", {ExecutionMode::Sequential, match::MemoryStrategy::Hash}},
     {"vs1", {ExecutionMode::Sequential, match::MemoryStrategy::List}},
     {"lisp", {ExecutionMode::LispStyle}},
     {"threads", {ExecutionMode::ParallelThreads}},
     {"sim", {ExecutionMode::SimulatedMultimax}},
     {"treat", {ExecutionMode::Treat}}}};
inline constexpr Vocabulary<match::SchedulerKind, 2> kSchedulerNames{
    "scheduler",
    {{"central", match::SchedulerKind::Central},
     {"steal", match::SchedulerKind::Steal}}};
inline constexpr Vocabulary<match::LockScheme, 2> kLockSchemeNames{
    "lock scheme",
    {{"simple", match::LockScheme::Simple},
     {"mrsw", match::LockScheme::Mrsw}}};
inline constexpr Vocabulary<CrStrategy, 2> kStrategyNames{
    "strategy", {{"lex", CrStrategy::Lex}, {"mea", CrStrategy::Mea}}};

class Engine {
 public:
  Engine(const ops5::Program& program, EngineConfig config);

  const Wme* make(std::string_view wme_literal) {
    return impl_->make(wme_literal);
  }
  const Wme* make(SymbolId cls,
                  const std::vector<std::pair<SymbolId, Value>>& fields) {
    return impl_->make(cls, fields);
  }
  void remove(TimeTag tag) { impl_->remove(tag); }
  RunResult run() { return impl_->run(); }

  const std::vector<FiringRecord>& trace() const { return impl_->trace(); }
  const RunStats& stats() const { return impl_->stats(); }
  const WorkingMemory& wm() const { return impl_->wm(); }
  const rete::Network& network() const { return impl_->network(); }
  EngineBase& base() { return *impl_; }

 private:
  std::unique_ptr<EngineBase> impl_;
};

}  // namespace psme
