// Uniprocessor engines: vs1 (linear-list memories) and vs2 (global hash
// memories), per the paper's Section 4.1. Match runs inline on the control
// thread through a FIFO task queue, using the same kernel as the parallel
// engines.
#pragma once

#include <vector>

#include "engine/engine_base.hpp"

namespace psme {

class SequentialEngine : public EngineBase {
 public:
  SequentialEngine(const ops5::Program& program, EngineOptions options);

  const MatchStats& match_stats() const { return ctl_.stats.match; }

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override {}  // submit_change drains to fixpoint

 private:
  void drain();

  std::unique_ptr<match::HashTokenTable> left_table_;
  std::unique_ptr<match::HashTokenTable> right_table_;
  std::unique_ptr<match::ListMemories> list_mems_;
  match::BumpArena arena_;
  match::MatchContext ctx_;
  match::WorldContext world_;
  std::vector<match::Task> queue_;  // drain_fifo's flat FIFO
};

}  // namespace psme
