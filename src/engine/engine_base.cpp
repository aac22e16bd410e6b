#include "engine/engine_base.hpp"

#include <chrono>

#include "rr/fault.hpp"
#include "rr/recorder.hpp"
#include "rr/replay.hpp"

namespace psme {

EngineBase::EngineBase(const ops5::Program& program, EngineOptions options)
    : options_(options), image_(program), cs_(program) {
  ctl_.reset(program, options_.max_cycles);
}

void EngineBase::rr_quiescent_hook() {
  if (options_.rr_faults) options_.rr_faults->set_cycle(ctl_.stats.cycles);
  if (options_.rr_record) options_.rr_record->on_quiescent(*ctl_.wm, cs_);
  if (options_.rr_replay) options_.rr_replay->on_quiescent(*ctl_.wm, cs_);
}

RunResult EngineBase::run() {
  using Clock = std::chrono::steady_clock;
  const auto run_start = Clock::now();
  begin_run();
  const Control::Submit submit = [this](const Wme* wme, std::int8_t sign) {
    submit_change(wme, sign);
  };

  // Feed initial working memory to the matcher, then one recognize-act
  // cycle per quiescent point.
  ctl_.submit_pending(submit);
  do {
    wait_quiescent();
    ctl_.quiesced(cs_);
    rr_quiescent_hook();
  } while (ctl_.cycle(image_, options_, cs_, submit));

  end_run();
  ctl_.stats.total_seconds +=
      std::chrono::duration<double>(Clock::now() - run_start).count();
  return ctl_.result();
}

}  // namespace psme
