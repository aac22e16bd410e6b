#include "world/batch_engine.hpp"

#include <bit>
#include <stdexcept>

#include "engine/engine.hpp"
#include "rr/digest.hpp"
#include "rr/fault.hpp"

namespace psme::world {

BatchEngine::BatchEngine(const ops5::Program& program, EngineOptions options)
    : options_(options),
      pool_(program, options,
            options.worlds == 0 ? 1u : options.worlds,
            options.match_processes + 1) {
  if (options_.worlds == 0)
    throw std::invalid_argument("BatchEngine: options.worlds must be >= 1");
  if (options_.rr_record || options_.rr_replay)
    throw std::invalid_argument(
        "BatchEngine: record/replay hooks are single-world; use "
        "set_digest_capture for per-world digests");
  const ExecutionMode mode = options_.match_processes > 0
                                ? ExecutionMode::ParallelThreads
                                : ExecutionMode::Sequential;
  validate_options(options_, mode);
  if (options_.match_processes > 0) {
    // Shared lock space across worlds: at least the per-world line count,
    // widened up to 8x as worlds grow so same-bucket-different-world
    // false sharing stays rare. Power-of-two by construction, so a salt
    // below the lock count keeps every line in range.
    const std::uint32_t lines = pool_.world(0).left_table->size();
    const std::uint32_t locks =
        lines * std::min<std::uint32_t>(
                    std::bit_ceil(std::max(1u, pool_.size())), 8u);
    std::vector<match::PoolWorld> worlds;
    for (std::uint32_t i = 0; i < pool_.size(); ++i) {
      World& w = pool_.world(i);
      const std::uint64_t h = (std::uint64_t{i} + 1) * 0x9e3779b97f4a7c15ull;
      worlds.push_back({&w.ctx, w.arenas.data(),
                        static_cast<std::uint32_t>(h >> 32) & (locks - 1)});
    }
    workers_ = std::make_unique<match::WorkerPool>(
        network(), options_.match_processes,
        match::make_scheduler(scheduler_of(options_, mode),
                              options_.task_queues,
                              options_.match_processes + 1),
        locks, options_.lock_scheme, std::move(worlds),
        match::WorkerPool::Hooks{nullptr, options_.rr_faults, options_.obs});
  }
}

BatchEngine::~BatchEngine() = default;

void BatchEngine::check_slot(std::uint32_t) const {
  if (workers_)
    throw std::invalid_argument(
        "world-backed sessions need an inline BatchEngine "
        "(match_processes == 0): run_session slices execute on the "
        "request thread");
}

void BatchEngine::submit_change(World& w, const Wme* wme, std::int8_t sign) {
  match::Task root;
  root.kind = match::TaskKind::Root;
  root.sign = sign;
  root.world = w.id;
  root.wme = wme;
  if (workers_) {
    workers_->scheduler().push(root, workers_->control_ep(), w.stats.match);
    return;
  }
  match::MatchContext ctx;
  ctx.strategy = match::MemoryStrategy::Hash;
  ctx.arena = &w.arenas[0];
  ctx.stats = &w.stats.match;
  w.inline_queue.push_back(root);
  match::drain_fifo(ctx, w.ctx, network(), w.inline_queue);
}

void BatchEngine::quiescent(World& w) {
  w.quiesced(*w.cs);
  if (!digest_capture_) return;
  if (!w.digests.empty() && w.digests.back().cycle == w.stats.cycles) return;
  w.digests.push_back(
      {w.stats.cycles, rr::wm_digest(*w.wm), rr::cs_digest(*w.cs)});
}

Control::Submit BatchEngine::submit_to(World& w) {
  return [this, &w](const Wme* wme, std::int8_t sign) {
    submit_change(w, wme, sign);
  };
}

void BatchEngine::run_all() {
  // Inline mode drains each change eagerly; the threaded pool quiesces at
  // one global barrier per round.
  auto wait_all_quiescent = [this] {
    if (workers_) workers_->wait_quiescent();
  };
  if (workers_) workers_->begin_run(batch_match_stats_);
  // Initial load: every world's pending changes enter the shared stream.
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    World& w = pool_.world(i);
    w.live = true;
    w.submit_pending(submit_to(w));
  }
  wait_all_quiescent();
  std::uint64_t round = 0;
  if (options_.rr_faults) options_.rr_faults->set_cycle(round);
  for (std::uint32_t i = 0; i < pool_.size(); ++i) quiescent(pool_.world(i));
  // Batch rounds: every live world fires one instantiation and evaluates
  // its RHS (root tasks from all worlds pipeline into the match), then ONE
  // barrier covers them all — the per-cycle quiescence cost amortizes over
  // the whole batch.
  std::vector<std::uint32_t> fired;
  fired.reserve(pool_.size());
  for (;;) {
    fired.clear();
    for (std::uint32_t i = 0; i < pool_.size(); ++i) {
      World& w = pool_.world(i);
      if (!w.live) continue;
      if (w.cycle(pool_.image(), options_, *w.cs, submit_to(w)))
        fired.push_back(i);
      else
        w.live = false;
    }
    if (fired.empty()) break;
    wait_all_quiescent();
    if (options_.rr_faults) options_.rr_faults->set_cycle(++round);
    for (const std::uint32_t i : fired) quiescent(pool_.world(i));
  }
  if (workers_) workers_->end_run(batch_match_stats_);
}

RunResult BatchEngine::run_session(std::uint32_t wi) {
  if (workers_)
    throw std::logic_error(
        "run_session: single-world runs need inline match "
        "(match_processes == 0); use run_all for the threaded pool");
  World& w = pool_.world(wi);
  w.submit_pending(submit_to(w));
  quiescent(w);
  while (w.cycle(pool_.image(), options_, *w.cs, submit_to(w)))
    quiescent(w);
  return w.result();
}

}  // namespace psme::world
