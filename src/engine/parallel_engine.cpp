#include "engine/parallel_engine.hpp"

#include <algorithm>

#include "rr/replay.hpp"

namespace psme {

namespace {

// Validates the options, then builds the scheduler the pool runs on: the
// configured discipline, or under replay the scheduler that releases tasks
// in recorded order (rr/replay.hpp).
std::unique_ptr<match::Scheduler> make_pool_scheduler(
    const EngineOptions& options) {
  if (options.match_processes < 1)
    throw std::invalid_argument(
        "ParallelEngine requires at least one match process");
  if (options.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "the parallel matcher uses the global hash-table memories (vs2)");
  if (options.rr_replay)
    return rr::make_replay_scheduler(options.rr_replay,
                                     options.match_processes + 1);
  return match::make_scheduler(
      options.scheduler.value_or(kThreadedScheduler), options.task_queues,
      options.match_processes + 1, options.steal_deque_capacity);
}

}  // namespace

ParallelEngine::ParallelEngine(const ops5::Program& program,
                               EngineOptions options)
    : EngineBase(program, options),
      left_table_(options_.hash_buckets),
      right_table_(options_.hash_buckets),
      world_{&left_table_, &right_table_, nullptr, &cs_},
      arenas_(static_cast<std::size_t>(std::max(options_.match_processes, 0)) +
              1),
      // Lock count follows the table's rounded (power-of-two) line count,
      // not the requested bucket count: line_of() indexes the rounded
      // space, and a non-power-of-two request would otherwise leave lines
      // without locks.
      pool_(network(), options_.match_processes,
            make_pool_scheduler(options_), left_table_.size(),
            options_.lock_scheme,
            {{&world_, arenas_.data(), 0}},
            {options_.rr_record, options_.rr_faults, options_.obs}) {}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::begin_run() { pool_.begin_run(ctl_.stats.match); }

void ParallelEngine::end_run() { pool_.end_run(ctl_.stats.match); }

void ParallelEngine::submit_change(const Wme* wme, std::int8_t sign) {
  if (!phase_open_) {
    phase_open_ = true;
    phase_start_ = std::chrono::steady_clock::now();
  }
  match::Task root;
  root.kind = match::TaskKind::Root;
  root.sign = sign;
  root.wme = wme;
  pool_.scheduler().push(root, pool_.control_ep(), ctl_.stats.match);
}

void ParallelEngine::wait_quiescent() {
  // All of the phase's root pushes are in: arm the replayer's
  // stuck-schedule detection.
  if (options_.rr_replay) options_.rr_replay->phase_pushed();
  pool_.wait_quiescent();
  if (phase_open_) {
    phase_open_ = false;
    ctl_.stats.match_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      phase_start_)
            .count();
  }
}

}  // namespace psme
