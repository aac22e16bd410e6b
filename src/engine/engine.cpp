#include "engine/engine.hpp"

#include "engine/lisp_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/sequential_engine.hpp"
#include "engine/treat_engine.hpp"

namespace psme {

bool is_parallel(ExecutionMode mode) {
  return mode == ExecutionMode::ParallelThreads ||
         mode == ExecutionMode::SimulatedMultimax;
}

void validate_options(const EngineOptions& options, ExecutionMode mode) {
  if (options.worlds > 0 &&
      (mode == ExecutionMode::LispStyle || mode == ExecutionMode::Treat))
    throw std::invalid_argument(
        "EngineOptions.worlds is meaningless on the " +
        std::string(mode == ExecutionMode::LispStyle ? "lisp-style"
                                                     : "TREAT") +
        " engine: it does not run the shared match kernel");
  if (options.worlds > 0 && options.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "worlds use the global hash-table memories (vs2), not vs1 lists");
  if (options.match_processes < 0)
    throw std::invalid_argument("EngineOptions.match_processes is negative");
  if (options.task_queues < 1)
    throw std::invalid_argument("EngineOptions.task_queues must be >= 1");
  if (options.hash_buckets == 0)
    throw std::invalid_argument("EngineOptions.hash_buckets must be >= 1");
  const bool parallel = is_parallel(mode);
  if (parallel && options.match_processes < 1)
    throw std::invalid_argument(
        "the parallel engines need at least one match process");
  if (parallel && options.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "the parallel engines use the global hash-table memories (vs2); "
        "vs1 list memories are sequential-only");
  if (options.rr_replay && !parallel && mode != ExecutionMode::Sequential)
    throw std::invalid_argument(
        "rr_replay is only meaningful on engines with a task scheduler");
}

match::SchedulerKind scheduler_of(const EngineOptions& options,
                                  ExecutionMode mode) {
  return options.scheduler.value_or(mode == ExecutionMode::ParallelThreads
                                        ? kThreadedScheduler
                                        : kSimScheduler);
}

Engine::Engine(const ops5::Program& program, EngineConfig config) {
  if (config.options.worlds > 1)
    throw std::invalid_argument(
        "EngineOptions.worlds > 1 on the single-world Engine facade; "
        "batched execution needs world::BatchEngine");
  validate_options(config.options, config.mode);
  switch (config.mode) {
    case ExecutionMode::Sequential:
      impl_ = std::make_unique<SequentialEngine>(program, config.options);
      break;
    case ExecutionMode::LispStyle:
      impl_ = std::make_unique<LispStyleEngine>(program, config.options);
      break;
    case ExecutionMode::ParallelThreads:
      impl_ = std::make_unique<ParallelEngine>(program, config.options);
      break;
    case ExecutionMode::SimulatedMultimax:
      impl_ =
          std::make_unique<sim::SimEngine>(program, config.options, config.sim);
      break;
    case ExecutionMode::Treat:
      impl_ = std::make_unique<TreatEngine>(program, config.options);
      break;
  }
}

}  // namespace psme
