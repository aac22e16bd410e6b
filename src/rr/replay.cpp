#include "rr/replay.hpp"

#include <algorithm>

#include "obs/observability.hpp"
#include "rr/digest.hpp"

namespace psme::rr {

ReplayCoordinator::ReplayCoordinator(const ReplayLog& log,
                                     const ops5::Program* program)
    : log_(log), program_(program) {
  for (const CycleRecord& c : log.cycles) {
    for (const PopRecord& p : c.pops) seq_.push_back(p);
    cycle_end_.push_back(seq_.size());
  }
  // Digest-only logs (e.g. recorded from the sequential engine, which has
  // no scheduler) carry no pop sequence: run free from the start — that is
  // not a divergence — and still check every cycle digest.
  if (seq_.empty()) free_.store(true, std::memory_order_release);
}

void ReplayCoordinator::attach(obs::Observability* obs) { obs_ = obs; }

void ReplayCoordinator::phase_pushed() {
  phase_pushed_.store(true, std::memory_order_release);
}

void ReplayCoordinator::phase_opened() {
  phase_pushed_.store(false, std::memory_order_release);
}

void ReplayCoordinator::diverge_locked(std::size_t at_pop, const char* why) {
  if (!report_.schedule_diverged) {
    report_.schedule_diverged = true;
    report_.schedule_divergence_pop = at_pop;
    if (!report_.detail.empty()) report_.detail += "; ";
    report_.detail += "schedule divergence at pop " + std::to_string(at_pop) +
                      " (cycle " + std::to_string(qi_) + "): " + why;
  }
  free_.store(true, std::memory_order_release);
}

ReplayCoordinator::Verdict ReplayCoordinator::poll(
    unsigned ep, std::size_t queued,
    const std::function<bool(std::uint64_t)>& have, std::uint64_t* fp_out) {
  if (free_.load(std::memory_order_acquire)) return Verdict::Free;
  SpinGuard g(mu_);
  if (free_.load(std::memory_order_relaxed)) return Verdict::Free;
  if (in_flight_.load(std::memory_order_relaxed)) return Verdict::Wait;
  if (cursor_ >= seq_.size()) {
    if (queued > 0 && phase_pushed_.load(std::memory_order_relaxed)) {
      diverge_locked(cursor_, "recorded schedule exhausted with tasks queued");
      return Verdict::Free;
    }
    return Verdict::Wait;
  }
  const PopRecord& exp = seq_[cursor_];
  if (!have(exp.fp)) {
    // Every pop recorded before `cursor_` has completed (serialized
    // execution), so all pushes that causally precede the expected task
    // have happened. If the phase's pushes are also all in and tasks are
    // queued anyway, the expected task will never appear: diverge rather
    // than deadlock.
    if (queued > 0 && phase_pushed_.load(std::memory_order_relaxed)) {
      diverge_locked(cursor_, "next recorded task is not queued");
      return Verdict::Free;
    }
    return Verdict::Wait;
  }
  if (exp.ep != ep) return Verdict::Wait;
  ++cursor_;
  ++report_.pops_matched;
  in_flight_.store(true, std::memory_order_relaxed);
  *fp_out = exp.fp;
  return Verdict::Take;
}

void ReplayCoordinator::completed() {
  in_flight_.store(false, std::memory_order_release);
}

void ReplayCoordinator::requeued() {
  SpinGuard g(mu_);
  if (cursor_ > 0 && !free_.load(std::memory_order_relaxed)) {
    --cursor_;
    --report_.pops_matched;
  }
  in_flight_.store(false, std::memory_order_release);
}

void ReplayCoordinator::on_quiescent(const WorkingMemory& wm,
                                     const ConflictSet& cs) {
  // Digests are computed before taking mu_ — workers poll() under that
  // lock while spinning for their turn.
  const std::uint64_t wmd = wm_digest(wm);
  std::vector<std::uint64_t> entries;
  std::uint64_t csd;
  const bool want_entries =
      qi_ < log_.cycles.size() && !log_.cycles[qi_].cs_entries.empty();
  if (want_entries) {
    entries = cs_entry_hashes(cs);
    csd = combine_hashes(entries);
  } else {
    csd = cs_digest(cs);
  }

  std::string entry_diff;
  if (want_entries && program_ && csd != log_.cycles[qi_].cs_digest)
    entry_diff = cs_divergence(cs, log_.cycles[qi_].cs_entries, *program_);

  SpinGuard g(mu_);
  if (qi_ >= log_.cycles.size()) {
    if (!report_.schedule_diverged && !report_.digest_diverged) {
      report_.schedule_diverged = true;
      report_.schedule_divergence_pop = cursor_;
      if (!report_.detail.empty()) report_.detail += "; ";
      report_.detail += "run reached cycle " + std::to_string(qi_) +
                        " but the recording has only " +
                        std::to_string(log_.cycles.size()) + " cycles";
      free_.store(true, std::memory_order_release);
    }
    ++qi_;
    return;
  }

  const CycleRecord& rec = log_.cycles[qi_];
  if (!free_.load(std::memory_order_relaxed) && cursor_ != cycle_end_[qi_]) {
    // The phase went quiescent with recorded pops unconsumed — a recorded
    // task was never pushed in this run (e.g. the recording lost it to a
    // fault). Resync to the cycle boundary; the digests below will name
    // the damage.
    if (!report_.schedule_diverged) {
      report_.schedule_diverged = true;
      report_.schedule_divergence_pop = cursor_;
      if (!report_.detail.empty()) report_.detail += "; ";
      report_.detail += "cycle " + std::to_string(qi_) + " went quiescent at pop " +
                        std::to_string(cursor_) + " of " +
                        std::to_string(cycle_end_[qi_]);
    }
    cursor_ = cycle_end_[qi_];
  }

  if ((wmd != rec.wm_digest || csd != rec.cs_digest) &&
      !report_.digest_diverged) {
    report_.digest_diverged = true;
    report_.first_bad_cycle = qi_;
    if (!report_.detail.empty()) report_.detail += "; ";
    if (!entry_diff.empty()) {
      report_.detail += "cycle " + std::to_string(qi_) + ": " + entry_diff;
    } else {
      report_.detail += "cycle " + std::to_string(qi_) + ": wm digest " +
                        u64_to_string(wmd) + " vs recorded " +
                        u64_to_string(rec.wm_digest) + ", cs digest " +
                        u64_to_string(csd) + " vs recorded " +
                        u64_to_string(rec.cs_digest);
    }
    if (obs_) {
      obs_->registry
          .gauge({"psme.rr.replay.first_bad_cycle", "cycles",
                  "first cycle whose digests diverged from the recording", "",
                  obs::MetricKind::Gauge})
          .set(static_cast<double>(qi_));
    }
  }
  ++qi_;
  report_.cycles_checked = qi_;
}

ReplayReport ReplayCoordinator::report() const {
  SpinGuard g(mu_);
  ReplayReport r = report_;
  if (obs_) {
    // Publish final replay counters alongside the report.
    obs::Observability* obs = obs_;
    obs->registry
        .counter({"psme.rr.replay.pops_matched", "tasks",
                  "tasks dispatched in recorded order during replay", "",
                  obs::MetricKind::Counter})
        .add(0, r.pops_matched);
    obs->registry
        .counter({"psme.rr.replay.divergences", "events",
                  "schedule or digest divergences detected during replay", "",
                  obs::MetricKind::Counter})
        .add(0, (r.schedule_diverged ? 1u : 0u) + (r.digest_diverged ? 1u : 0u));
  }
  return r;
}

// --- threads-mode replay scheduler ----------------------------------------

namespace {

class ReplayScheduler final : public match::Scheduler {
 public:
  ReplayScheduler(ReplayCoordinator* coord, int endpoints)
      : coord_(coord), endpoints_(endpoints) {}

  void push(const match::Task& task, unsigned who, MatchStats& stats) override {
    push_batch(&task, 1, who, stats);
  }

  void push_batch(const match::Task* tasks, std::size_t n,
                  unsigned /*who*/, MatchStats& stats) override {
    if (n == 0) return;
    count_.fetch_add(static_cast<std::int64_t>(n),
                     std::memory_order_acq_rel);
    SpinGuard g(mu_, &stats.queue_probes);
    // Only root pushes open a phase. The control endpoint also publishes
    // the emissions of the tasks it runs while it waits for quiescence;
    // those must leave stuck-schedule detection armed.
    if (tasks[0].kind == match::TaskKind::Root) coord_->phase_opened();
    for (std::size_t i = 0; i < n; ++i)
      pending_.push_back({tasks[i], task_fingerprint(tasks[i])});
  }

  void requeue(const match::Task& task, unsigned who,
               MatchStats& stats) override {
    {
      SpinGuard g(mu_, &stats.queue_probes);
      pending_.push_back({task, task_fingerprint(task)});
    }
    coord_->requeued();
    (void)who;
  }

  bool try_pop(match::Task* out, unsigned who, MatchStats& stats) override {
    SpinGuard g(mu_, &stats.queue_probes);
    const auto have = [this](std::uint64_t fp) {
      return index_of(fp) != pending_.size();
    };
    std::uint64_t fp = 0;
    switch (coord_->poll(who, pending_.size(), have, &fp)) {
      case ReplayCoordinator::Verdict::Wait:
        return false;
      case ReplayCoordinator::Verdict::Take: {
        const std::size_t i = index_of(fp);
        *out = pending_[i].task;
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
      case ReplayCoordinator::Verdict::Free:
        if (pending_.empty()) return false;
        *out = pending_.front().task;
        pending_.erase(pending_.begin());
        return true;
    }
    return false;
  }

  void task_done() override {
    coord_->completed();
    count_.fetch_sub(1, std::memory_order_acq_rel);
  }
  std::int64_t task_count() const override {
    return count_.load(std::memory_order_acquire);
  }
  int endpoints() const override { return endpoints_; }
  // Every task must pass through poll() to be released in recorded order.
  bool allows_continuation() const override { return false; }

 private:
  struct Pending {
    match::Task task;
    std::uint64_t fp;
  };

  std::size_t index_of(std::uint64_t fp) const {
    for (std::size_t i = 0; i < pending_.size(); ++i)
      if (pending_[i].fp == fp) return i;
    return pending_.size();
  }

  ReplayCoordinator* coord_;
  int endpoints_;
  SpinLock mu_;
  std::vector<Pending> pending_;
  std::atomic<std::int64_t> count_{0};
};

}  // namespace

std::unique_ptr<match::Scheduler> make_replay_scheduler(
    ReplayCoordinator* coord, int endpoints) {
  return std::make_unique<ReplayScheduler>(coord, endpoints);
}

}  // namespace psme::rr
