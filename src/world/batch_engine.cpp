#include "world/batch_engine.hpp"

#include <bit>
#include <stdexcept>

#include "common/symbol_table.hpp"
#include "ops5/parser.hpp"
#include "rr/digest.hpp"
#include "rr/fault.hpp"

namespace psme::world {

// Routes one world's RHS effects back into the batch: WM changes become
// (world, root-task) submissions, halt flags the world, write goes to the
// shared sink.
class BatchEngine::WorldEffects final : public RhsEffects {
 public:
  WorldEffects(BatchEngine& eng, World& w) : eng_(eng), w_(w) {}
  void on_make(const Wme* wme) override { eng_.submit_change(w_, wme, +1); }
  void on_remove(const Wme* wme) override { eng_.submit_change(w_, wme, -1); }
  void on_write(const std::string& text) override {
    if (eng_.options_.out) *eng_.options_.out << text;
  }
  void on_halt() override { w_.halted = true; }

 private:
  BatchEngine& eng_;
  World& w_;
};

BatchEngine::BatchEngine(const ops5::Program& program, EngineOptions options)
    : options_(options),
      pool_(program, options,
            options.worlds == 0 ? 1u : options.worlds,
            options.match_processes + 1) {
  if (options_.worlds == 0)
    throw std::invalid_argument("BatchEngine: options.worlds must be >= 1");
  if (options_.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument(
        "BatchEngine: worlds use the global hash-table memories (vs2)");
  if (options_.rr_record || options_.rr_replay)
    throw std::invalid_argument(
        "BatchEngine: record/replay hooks are single-world; use "
        "set_digest_capture for per-world digests");
  if (options_.match_processes < 0)
    throw std::invalid_argument("BatchEngine: negative match_processes");
  if (options_.match_vm) code_ = &pool_.network().code();
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
        pool_.network(), code_, options_.match_processes,
        match::make_scheduler(
            options_.scheduler.value_or(kThreadedScheduler),
            options_.task_queues, options_.match_processes + 1,
            options_.steal_deque_capacity),
        locks, options_.lock_scheme, std::move(worlds),
        match::WorkerPool::Hooks{nullptr, options_.rr_faults, options_.obs});
  }
}

BatchEngine::~BatchEngine() = default;

const Wme* BatchEngine::make(std::uint32_t wi, std::string_view wme_literal) {
  const ops5::WmeLiteral lit = ops5::parse_wme_literal(wme_literal);
  std::vector<std::pair<SymbolId, Value>> fields;
  fields.reserve(lit.fields.size());
  for (const auto& [attr, value] : lit.fields)
    fields.emplace_back(intern(attr), value);
  return make(wi, intern(lit.cls), fields);
}

const Wme* BatchEngine::make(
    std::uint32_t wi, SymbolId cls,
    const std::vector<std::pair<SymbolId, Value>>& fields) {
  World& w = pool_.world(wi);
  const Wme* wme = w.wm->make(cls, w.wm->build_fields(cls, fields));
  w.pending.emplace_back(wme, +1);
  return wme;
}

void BatchEngine::remove(std::uint32_t wi, TimeTag tag) {
  World& w = pool_.world(wi);
  const Wme* wme = w.wm->find(tag);
  if (!wme) throw std::invalid_argument("remove: no live wme with timetag");
  w.pending.emplace_back(wme, -1);
  w.wm->remove(wme);
}

RunResult BatchEngine::result(std::uint32_t wi) const {
  const World& w = pool_.world(wi);
  RunResult r;
  r.reason = w.last_reason;
  r.stats = w.stats;
  return r;
}

void BatchEngine::submit_change(World& w, const Wme* wme, std::int8_t sign) {
  match::Task root;
  root.kind = match::TaskKind::Root;
  root.sign = sign;
  root.world = w.id;
  root.wme = wme;
  if (!workers_) {
    w.inline_queue.push_back(root);
    drain_world_queue(w);
    return;
  }
  workers_->scheduler().push(root, workers_->control_ep(), w.stats.match);
}

void BatchEngine::drain_world_queue(World& w) {
  match::MatchContext ctx;
  ctx.strategy = match::MemoryStrategy::Hash;
  ctx.arena = &w.arenas[0];
  ctx.stats = &w.stats.match;
  ctx.code = code_;
  while (!w.inline_queue.empty()) {
    const match::Task task = w.inline_queue.front();
    w.inline_queue.pop_front();
    w.emit_buf.clear();
    match::process_task(ctx, w.ctx, pool_.network(), task, w.emit_buf);
    for (const match::Task& t : w.emit_buf) w.inline_queue.push_back(t);
    w.stats.match.tasks_executed += 1;
  }
}

void BatchEngine::apply_restored_refraction(World& w) {
  for (const FiringRecord& rec : w.restored_fired)
    w.cs->mark_fired(rec.prod_index, rec.timetags);
  w.restored_fired.clear();
}

void BatchEngine::capture_digest(World& w) {
  if (!digest_capture_) return;
  if (!w.digests.empty() && w.digests.back().cycle == w.stats.cycles) return;
  w.digests.push_back(
      {w.stats.cycles, rr::wm_digest(*w.wm), rr::cs_digest(*w.cs)});
}

bool BatchEngine::fire_one(World& w) {
  if (w.halted) {
    w.last_reason = StopReason::Halt;
    w.live = false;
    return false;
  }
  if (w.stats.cycles >= w.max_cycles) {
    w.last_reason = StopReason::MaxCycles;
    w.live = false;
    return false;
  }
  auto inst = w.cs->select_and_fire(options_.strategy);
  if (!inst) {
    w.last_reason = StopReason::EmptyConflictSet;
    w.live = false;
    return false;
  }
  ++w.stats.cycles;
  ++w.stats.firings;
  FiringRecord rec;
  rec.prod_index = inst->prod_index;
  rec.timetags = inst->tags_in_order();
  if (options_.watch >= 1 && options_.out) {
    *options_.out << "[w" << w.id << "] " << w.stats.cycles << ". "
                  << symbol_name(
                         pool_.program().productions()[inst->prod_index].name);
    for (const TimeTag t : rec.timetags) *options_.out << " " << t;
    *options_.out << "\n";
  }
  w.trace.push_back(std::move(rec));
  WorldEffects fx(*this, w);
  run_rhs(pool_.rhs()[inst->prod_index], pool_.program(), inst->wmes, *w.wm,
          fx);
  return true;
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
    for (const auto& [wme, sign] : w.pending) submit_change(w, wme, sign);
    w.pending.clear();
  }
  wait_all_quiescent();
  std::uint64_t round = 0;
  if (options_.rr_faults) options_.rr_faults->set_cycle(round);
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    World& w = pool_.world(i);
    w.wm->collect();
    apply_restored_refraction(w);
    capture_digest(w);
  }
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
      if (fire_one(w)) fired.push_back(i);
    }
    if (fired.empty()) break;
    wait_all_quiescent();
    if (options_.rr_faults) options_.rr_faults->set_cycle(++round);
    for (const std::uint32_t i : fired) {
      World& w = pool_.world(i);
      w.wm->collect();
      capture_digest(w);
    }
  }
  if (workers_) workers_->end_run(batch_match_stats_);
}

RunResult BatchEngine::run_world(std::uint32_t wi) {
  if (workers_)
    throw std::logic_error(
        "run_world: single-world runs need inline match "
        "(match_processes == 0); use run_all for the threaded pool");
  World& w = pool_.world(wi);
  for (const auto& [wme, sign] : w.pending) submit_change(w, wme, sign);
  w.pending.clear();
  w.wm->collect();
  apply_restored_refraction(w);
  capture_digest(w);
  for (;;) {
    w.live = true;
    if (!fire_one(w)) break;
    w.wm->collect();
    capture_digest(w);
  }
  return result(wi);
}

}  // namespace psme::world
