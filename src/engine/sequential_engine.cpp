#include "engine/sequential_engine.hpp"

#include <chrono>

namespace psme {

SequentialEngine::SequentialEngine(const ops5::Program& program,
                                   EngineOptions options)
    : EngineBase(program, options) {
  ctx_.strategy = options_.memory;
  if (options_.memory == match::MemoryStrategy::Hash) {
    const std::uint32_t buckets = options_.hash_buckets.value_or(kHashBuckets);
    left_table_ = std::make_unique<match::HashTokenTable>(buckets);
    right_table_ = std::make_unique<match::HashTokenTable>(buckets);
    world_.left_table = left_table_.get();
    world_.right_table = right_table_.get();
  } else {
    list_mems_ =
        std::make_unique<match::ListMemories>(network().num_list_memories());
    world_.list_mems = list_mems_.get();
  }
  world_.conflict_set = &cs_;
  ctx_.arena = &arena_;
  ctx_.stats = &ctl_.stats.match;
}

void SequentialEngine::submit_change(const Wme* wme, std::int8_t sign) {
  match::Task root;
  root.kind = match::TaskKind::Root;
  root.sign = sign;
  root.wme = wme;
  queue_.push_back(root);
  drain();
}

void SequentialEngine::drain() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  match::drain_fifo(ctx_, world_, network(), queue_);
  ctl_.stats.match_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace psme
