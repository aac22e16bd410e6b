#include "analysis/parallelism.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "engine/engine_base.hpp"
#include "match/kernel.hpp"

namespace psme::analysis {
namespace {

using sim::CostModel;
using sim::VTime;

// A sequential engine whose task loop tracks dataflow timestamps.
class ProfilingEngine : public EngineBase {
 public:
  ProfilingEngine(const ops5::Program& program, EngineOptions options,
                  const CostModel& cost)
      : EngineBase(program, options),
        cost_(cost),
        left_table_(options.hash_buckets.value_or(kSimHashBuckets)),
        right_table_(options.hash_buckets.value_or(kSimHashBuckets)),
        line_work_(left_table_.size(), 0) {
    ctx_.strategy = match::MemoryStrategy::Hash;
    world_.left_table = &left_table_;
    world_.right_table = &right_table_;
    world_.conflict_set = &cs_;
    ctx_.arena = &arena_;
    ctx_.stats = &ctl_.stats.match;
  }

  ParallelismProfile take_profile() {
    finish_phase();
    return std::move(profile_);
  }

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override {
    match::Task root;
    root.kind = match::TaskKind::Root;
    root.sign = sign;
    root.wme = wme;
    queue_.push_back(Timed{root, 0});
    drain();
  }
  void wait_quiescent() override { finish_phase(); }

 private:
  struct Timed {
    match::Task task;
    VTime ready;  // dataflow time at which this task can start
  };

  void drain() {
    std::vector<match::Task> emit;
    while (!queue_.empty()) {
      const Timed cur = queue_.front();
      queue_.pop_front();
      emit.clear();
      match::ActivationCost ac;
      VTime cost = cost_.task_dispatch;
      switch (cur.task.kind) {
        case match::TaskKind::Root:
          match::process_root(ctx_, world_, network(), cur.task, emit, &ac);
          cost += cost_.root_charge(ac, emit.size());
          break;
        case match::TaskKind::Terminal:
          match::process_terminal(ctx_, world_, cur.task, &ac);
          cost += cost_.terminal_update;
          break;
        case match::TaskKind::JoinLeft:
        case match::TaskKind::JoinRight: {
          const match::MemUpdate up =
              match::process_join_update(ctx_, world_, cur.task, &ac);
          match::process_join_probe(ctx_, world_, cur.task, up, emit, &ac);
          cost += cost_.join_update_charge(ac, cur.task.sign) +
                  cost_.join_probe_charge(ac);
          VTime& line =
              line_work_[left_table_.line_of(match::task_hash(cur.task))];
          line += cost;
          phase_.max_line_work = std::max(phase_.max_line_work, line);
          break;
        }
      }
      const VTime finish = cur.ready + cost;
      phase_.work += cost;
      phase_.critical_path = std::max(phase_.critical_path, finish);
      phase_.tasks += 1;
      for (const match::Task& t : emit) queue_.push_back(Timed{t, finish});
    }
  }

  void finish_phase() {
    if (phase_.tasks == 0) return;
    profile_.total_work += phase_.work;
    profile_.total_critical += phase_.critical_path;
    profile_.total_tasks += phase_.tasks;
    profile_.phases.push_back(phase_);
    phase_ = PhaseProfile{};
    std::fill(line_work_.begin(), line_work_.end(), 0);
  }

  CostModel cost_;
  match::HashTokenTable left_table_;
  match::HashTokenTable right_table_;
  std::vector<VTime> line_work_;  // this phase's join work per line
  match::BumpArena arena_;
  match::MatchContext ctx_;
  match::WorldContext world_;
  std::deque<Timed> queue_;
  PhaseProfile phase_;
  ParallelismProfile profile_;
};

double bound(const ParallelismProfile& profile, int processors,
             bool line_serialised) {
  if (profile.total_work == 0) return 0.0;
  double denom = 0.0;
  for (const PhaseProfile& p : profile.phases) {
    double phase = std::max(static_cast<double>(p.critical_path),
                            static_cast<double>(p.work) / processors);
    if (line_serialised)
      phase = std::max(phase, static_cast<double>(p.max_line_work));
    denom += phase;
  }
  return denom == 0.0 ? 0.0 : static_cast<double>(profile.total_work) / denom;
}

}  // namespace

double ParallelismProfile::speedup_bound(int processors) const {
  return bound(*this, processors, false);
}

double ParallelismProfile::line_bound(int processors) const {
  return bound(*this, processors, true);
}

ParallelismProfile profile_parallelism(
    const ops5::Program& program,
    const std::vector<std::string>& initial_wmes, const sim::CostModel& cost,
    std::uint64_t max_cycles) {
  EngineOptions options;
  options.max_cycles = max_cycles;
  ProfilingEngine eng(program, options, cost);
  for (const std::string& wme : initial_wmes) eng.make(wme);
  eng.run();
  return eng.take_profile();
}

std::string render_profile(const ParallelismProfile& profile) {
  std::ostringstream os;
  os << "=== intrinsic parallelism (dataflow bound, no overheads) ===\n"
     << "match phases:          " << profile.phases.size() << "\n"
     << "tasks:                 " << profile.total_tasks << "\n"
     << "total work:            " << profile.total_work << " instructions\n"
     << "sum of critical paths: " << profile.total_critical
     << " instructions\n"
     << "intrinsic parallelism: " << profile.intrinsic_parallelism() << "\n"
     << "speed-up bounds:";
  for (const int p : {2, 4, 8, 13, 16, 32}) {
    os << "  " << p << "p=" << profile.speedup_bound(p);
  }
  os << "\n"
     << "line bounds:    ";
  for (const int p : {2, 4, 8, 13, 16, 32}) {
    os << "  " << p << "p=" << profile.line_bound(p);
  }
  os << "\n";
  return os.str();
}

}  // namespace psme::analysis
