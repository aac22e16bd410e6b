#include "sim/sim_engine.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "match/machine.hpp"
#include "obs/metrics.hpp"
#include "rr/fault.hpp"
#include "rr/replay.hpp"

namespace psme::sim {

namespace {

// Gupta's hardware task scheduler (SimConfig::hardware_scheduler): k queues
// rotated like CentralScheduler's, but a push or a pop is one uncontended
// bus transaction with no software lock.
class HardwareScheduler final : public match::Scheduler {
 public:
  HardwareScheduler(int num_queues, int endpoints)
      : queues_(static_cast<std::size_t>(num_queues)),
        hints_(static_cast<std::size_t>(endpoints)) {
    for (std::size_t i = 0; i < hints_.size(); ++i)
      hints_[i] = static_cast<unsigned>(i);
  }

  void push(const match::Task& task, unsigned who, MatchStats& stats) override {
    push_batch(&task, 1, who, stats);
  }
  void push_batch(const match::Task* tasks, std::size_t n, unsigned who,
                  MatchStats& stats) override {
    count_ += static_cast<std::int64_t>(n);
    for (std::size_t i = 0; i < n; ++i) enqueue(tasks[i], who, stats);
  }
  void requeue(const match::Task& task, unsigned who,
               MatchStats& stats) override {
    stats.requeues += 1;
    enqueue(task, who, stats);
  }
  bool try_pop(match::Task* out, unsigned who, MatchStats& stats) override {
    const unsigned hint = hints_[who]++;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      std::deque<match::Task>& q = queues_[(hint + i) % queues_.size()];
      if (q.empty()) continue;
      match::charge(match::Machine::Cost::HtsPop);
      if (q.empty()) continue;  // another CPU's transaction came first
      *out = q.front();
      q.pop_front();
      count_transaction(stats);
      return true;
    }
    return false;
  }

  void task_done() override { --count_; }
  std::int64_t task_count() const override { return count_; }
  int endpoints() const override { return static_cast<int>(hints_.size()); }
  // Like the central queues it replaces, it sees every task.
  bool allows_continuation() const override { return false; }

 private:
  void enqueue(const match::Task& task, unsigned who, MatchStats& stats) {
    match::charge(match::Machine::Cost::HtsPush);
    std::deque<match::Task>& q = queues_[hints_[who]++ % queues_.size()];
    q.push_back(task);
    count_transaction(stats);
    if (stats.queue_depth_hist) stats.queue_depth_hist->record(q.size());
  }
  static void count_transaction(MatchStats& stats) {
    stats.queue_acquisitions += 1;
    stats.queue_probes += 1;
    if (stats.queue_probe_hist) stats.queue_probe_hist->record(1);
  }

  std::vector<std::deque<match::Task>> queues_;
  std::vector<unsigned> hints_;
  std::int64_t count_ = 0;
};

// Validates the options, then builds the scheduler the virtual CPUs run:
// the recorded-order one under replay, the hardware scheduler when
// configured, else the configured discipline (the paper's central queues
// by default).
std::unique_ptr<match::Scheduler> make_sim_scheduler(
    const EngineOptions& options, const SimConfig& config) {
  if (options.match_processes < 1)
    throw std::invalid_argument("SimEngine requires at least one match CPU");
  if (options.memory != match::MemoryStrategy::Hash)
    throw std::invalid_argument("SimEngine uses the hash-table memories");
  const int endpoints = options.match_processes + 1;
  if (options.rr_replay)
    return rr::make_replay_scheduler(options.rr_replay, endpoints);
  if (config.hardware_scheduler)
    return std::make_unique<HardwareScheduler>(options.task_queues,
                                               endpoints);
  return match::make_scheduler(options.scheduler.value_or(kSimScheduler),
                               options.task_queues, endpoints,
                               options.steal_deque_capacity);
}

}  // namespace

SimEngine::SimEngine(const ops5::Program& program, EngineOptions options,
                     SimConfig config)
    : EngineBase(program, options),
      config_(config),
      left_table_(options_.hash_buckets.value_or(kSimHashBuckets)),
      right_table_(options_.hash_buckets.value_or(kSimHashBuckets)),
      world_{&left_table_, &right_table_, nullptr, &cs_},
      arenas_(static_cast<std::size_t>(std::max(options_.match_processes, 0)) +
              1),
      // Lock count follows the table's rounded (power-of-two) line count.
      pool_(network(), options_.match_processes,
            make_sim_scheduler(options_, config_), left_table_.size(),
            options_.lock_scheme,
            {{&world_, arenas_.data(), 0}},
            {options_.rr_record, options_.rr_faults, options_.obs}) {}

SimEngine::~SimEngine() = default;

void SimEngine::submit_change(const Wme* wme, std::int8_t sign) {
  ctl_.pending.emplace_back(wme, sign);
}

void SimEngine::worker_main(unsigned ep) {
  rr::FaultInjector* const faults = options_.rr_faults;
  match::Scheduler& sched = pool_.scheduler();
  for (;;) {
    if (shutdown_) return;
    if (faults && faults->worker_dead(ep)) {
      // Hand on any wakeup meant for this CPU: a survivor must drain
      // whatever it announced.
      des_->wake_all(idle_workers_, des_->current().now);
      return;
    }
    const std::uint64_t published = des_->publications();
    const std::uint64_t injected = faults ? faults->injected() : 0;
    if (pool_.run_one(ep)) {
      const VTime now = des_->current().now;
      // Replay serializes execution: the endpoint whose turn is next may be
      // asleep.
      if (options_.rr_replay) des_->wake_all(idle_workers_, now);
      if (sched.phase_complete()) des_->wake_all(control_wait_, now);
      continue;
    }
    if (shutdown_) return;
    // Work published while this CPU looked, or an injected fault that
    // failed the step, means look again rather than sleep.
    if (des_->publications() != published ||
        (faults && faults->injected() != injected))
      continue;
    des_->sleep(idle_workers_);
  }
}

void SimEngine::run_phase(
    std::vector<std::pair<const Wme*, std::int8_t>> changes) {
  if (changes.empty()) return;
  const CostModel& cm = config_.cost;
  SimCpu& cpu = des_->current();
  match::Scheduler& sched = pool_.scheduler();
  VTime phase_start = 0;
  if (!config_.pipeline) {
    // Non-pipelined baseline: evaluate the whole RHS first, then match.
    des_->spend(cm.rhs_per_change * static_cast<VTime>(changes.size()));
    phase_start = cpu.now;
  }
  for (std::size_t i = 0; i < changes.size(); ++i) {
    if (config_.pipeline) {
      des_->spend(cm.rhs_per_change);
      if (i == 0) phase_start = cpu.now;
    }
    match::Task root;
    root.kind = match::TaskKind::Root;
    root.wme = changes[i].first;
    root.sign = changes[i].second;
    sched.push(root, pool_.control_ep(), control_stats_);
  }
  const VTime pushes_done = cpu.now;
  if (options_.rr_replay) {
    // All of the phase's root pushes are in: arm stuck-schedule detection
    // and let sleeping workers re-evaluate their verdicts.
    options_.rr_replay->phase_pushed();
    des_->wake_all(idle_workers_, cpu.now);
  }
  while (!sched.phase_complete()) des_->sleep(control_wait_);
  pool_.apply_deferred_terminals();
  last_idle_ = cpu.now - pushes_done;
  sim_match_time_ += cpu.now - phase_start;
}

void SimEngine::control_main() {
  // The first CPU to run: the pool is armed before any worker looks.
  pool_.begin_run(control_stats_);
  const CostModel& cm = config_.cost;
  const Control::Submit submit = [this](const Wme* wme, std::int8_t sign) {
    submit_change(wme, sign);
  };
  // The first phase matches the initial working memory, each later one a
  // firing's RHS changes: the RHS runs natively, its changes queue in
  // ctl_.pending and are pushed with their virtual costs.
  for (;;) {
    run_phase(std::exchange(ctl_.pending, {}));
    ctl_.quiesced(cs_);
    rr_quiescent_hook();
    if (ctl_.stopped()) break;
    VTime cr_cost =
        cm.cr_base + cm.cr_per_instantiation * static_cast<VTime>(cs_.size());
    if (config_.overlap_cr) {
      // Footnote 3's optimization: conflict resolution proceeds while the
      // match tail drains, so only the excess beyond the control process's
      // idle wait costs wall-clock time.
      cr_cost = cr_cost > last_idle_ ? cr_cost - last_idle_ : 0;
    }
    des_->spend(cr_cost);
    if (!ctl_.cycle(image_, options_, cs_, submit)) break;
  }
  shutdown_ = true;
  des_->wake_all(idle_workers_, des_->current().now);
}

RunResult SimEngine::run() {
  Scheduler des(config_.cost);
  des_ = &des;
  shutdown_ = false;
  sim_match_time_ = 0;
  last_idle_ = 0;
  idle_workers_ = {};
  control_wait_ = {};
  // Replay serializes execution, so the one endpoint whose turn it is must
  // wake: publications wake every sleeper instead of one per task.
  des.wake_on_publish(&idle_workers_, options_.rr_replay != nullptr);

  // CPU 0 is the control process (trace stream 0), CPU i+1 match process i.
  std::vector<SimCpu*> cpus;
  bool control_done = false;
  cpus.push_back(&des.add_cpu());
  des.start(*cpus.back(), [this, &control_done] {
    control_main();
    control_done = true;
  });
  for (int i = 0; i < options_.match_processes; ++i) {
    cpus.push_back(&des.add_cpu());
    des.start(*cpus.back(),
              [this, i] { worker_main(static_cast<unsigned>(i)); });
  }
  des.run();
  if (!control_done)
    throw std::logic_error("simulated match phase never reached quiescence");

  VTime end_time = 0;
  for (const SimCpu* cpu : cpus) end_time = std::max(end_time, cpu->now);
  pool_.end_run(ctl_.stats.match);
  ctl_.stats.match.merge(control_stats_);
  control_stats_ = MatchStats{};
  ctl_.stats.sim_match_seconds = config_.cost.to_seconds(sim_match_time_);
  sim_total_seconds_ = config_.cost.to_seconds(end_time);
  return ctl_.result();
}

}  // namespace psme::sim
