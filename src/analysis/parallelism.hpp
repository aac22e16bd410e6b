// Intrinsic-parallelism profiling, after Gupta's methodology.
//
// Runs a program once, sequentially, but timestamps every match task in
// *dataflow time*: a task becomes ready when its parent finishes, and
// finishes `cost` instructions later (the same per-activation charges the
// Multimax simulator uses). Per match phase this yields
//
//   work          — total instructions across all tasks,
//   critical path — the longest ready-to-finish chain,
//
// and the classic bound: with P processors a phase cannot finish faster
// than max(critical_path, work / P). Summing phases gives the program's
// speed-up ceiling with *zero* scheduling or lock overhead — the number
// the paper's measured speed-ups (Tables 4-5/4-6/4-8) should be read
// against, and an upper bound the simulator must respect.
//
// A second, tighter bound adds line serialisation: join tasks that hash to
// one line of the token tables hold that line's lock one at a time, so a
// phase also takes at least the largest work under any one line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ops5/program.hpp"
#include "sim/cost_model.hpp"

namespace psme::analysis {

struct PhaseProfile {
  sim::VTime work = 0;
  sim::VTime critical_path = 0;
  sim::VTime max_line_work = 0;  // largest join work under one hash line
  std::uint64_t tasks = 0;
};

struct ParallelismProfile {
  std::vector<PhaseProfile> phases;
  sim::VTime total_work = 0;
  sim::VTime total_critical = 0;
  std::uint64_t total_tasks = 0;

  // Mean available parallelism, work-weighted: work / critical path.
  double intrinsic_parallelism() const {
    return total_critical == 0
               ? 0.0
               : static_cast<double>(total_work) /
                     static_cast<double>(total_critical);
  }
  // Upper bound on match speed-up with P processors (no overheads):
  // total_work / sum_phase max(critical, work/P).
  double speedup_bound(int processors) const;
  // The same bound with each phase also charged its busiest line:
  // total_work / sum_phase max(critical, work/P, max_line_work).
  double line_bound(int processors) const;
};

// Profiles a program to quiescence/halt under the given cost model.
// `initial_wmes` are wme literals; `max_cycles` caps the run.
ParallelismProfile profile_parallelism(
    const ops5::Program& program,
    const std::vector<std::string>& initial_wmes,
    const sim::CostModel& cost = {}, std::uint64_t max_cycles = 1'000'000);

std::string render_profile(const ParallelismProfile& profile);

}  // namespace psme::analysis
