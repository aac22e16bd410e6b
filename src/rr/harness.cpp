#include "rr/harness.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/engine.hpp"
#include "rr/digest.hpp"
#include "rr/recorder.hpp"
#include "serve/checkpoint.hpp"

namespace psme::rr {

namespace {

// The modes a log can pin: the sequential engine (digests only; the fault
// runs' reference) and the two with a scheduler replay can drive.
constexpr EngineMode kReplayableModes[] = {{ExecutionMode::Sequential},
                                           {ExecutionMode::ParallelThreads},
                                           {ExecutionMode::SimulatedMultimax}};

// The engine a run shape names. RunSpec and LogHeader carry the same
// shape fields, so record, replay and the fault runs share this one
// conversion. Throws std::invalid_argument on an unknown name or a mode
// outside kReplayableModes (logs carry canonical names, so not vs2).
template <typename Shape>
EngineConfig shape_config(const Shape& s) {
  const EngineMode* mode = nullptr;
  for (const EngineMode& m : kReplayableModes)
    if (kModeNames.name_of(m) == s.mode) mode = &m;
  if (!mode) {
    std::string msg = "bad mode '" + s.mode + "' for record/replay (accepted:";
    for (const EngineMode& m : kReplayableModes)
      msg += " " + std::string(kModeNames.name_of(m));
    throw std::invalid_argument(msg + ")");
  }
  EngineConfig config;
  config.mode = mode->mode;
  EngineOptions& o = config.options;
  o.memory = mode->memory;
  o.scheduler = kSchedulerNames.parse(s.scheduler);
  o.lock_scheme = kLockSchemeNames.parse(s.lock_scheme);
  o.strategy = kStrategyNames.parse(s.strategy);
  o.match_processes = is_parallel(config.mode) ? s.match_processes : 0;
  o.task_queues = s.task_queues;
  o.max_cycles = s.max_cycles;
  o.seed = s.seed;
  return config;
}

// The log header describing `spec` run as `config` (program fingerprint
// included).
LogHeader header_from(const RunSpec& spec, const EngineConfig& config,
                      const ops5::Program& program) {
  LogHeader h;
  h.workload = spec.workload.name;
  h.source = spec.workload.source;
  h.initial_wmes = spec.workload.initial_wmes;
  h.mode = spec.mode;
  h.scheduler = spec.scheduler;
  h.lock_scheme = spec.lock_scheme;
  h.strategy = spec.strategy;
  h.match_processes = config.options.match_processes;
  h.task_queues = spec.task_queues;
  h.seed = spec.seed;
  h.max_cycles = spec.max_cycles;
  h.program_fingerprint = serve::Checkpoint::fingerprint_of(program);
  return h;
}

void load_wmes(Engine& engine, const std::vector<std::string>& wmes) {
  for (const std::string& w : wmes) engine.make(w);
}

// Count of hashes present in `a` but not `b` (both sorted ascending).
std::size_t only_in(const std::vector<std::uint64_t>& a,
                    const std::vector<std::uint64_t>& b) {
  std::size_t n = 0, j = 0;
  for (const std::uint64_t h : a) {
    while (j < b.size() && b[j] < h) ++j;
    if (j >= b.size() || b[j] != h) ++n;
  }
  return n;
}

// First per-cycle digest difference between two recordings of the same
// program; "" when they agree cycle for cycle.
std::string diff_cycles(const ReplayLog& ref, const ReplayLog& got,
                        std::size_t* first_bad_cycle) {
  const std::size_t n = std::min(ref.cycles.size(), got.cycles.size());
  for (std::size_t i = 0; i < n; ++i) {
    const CycleRecord& r = ref.cycles[i];
    const CycleRecord& g = got.cycles[i];
    if (r.wm_digest == g.wm_digest && r.cs_digest == g.cs_digest) continue;
    *first_bad_cycle = i;
    std::ostringstream os;
    os << "cycle " << i << ": ";
    if (r.wm_digest != g.wm_digest)
      os << "wm digest " << u64_to_string(g.wm_digest) << " != recorded "
         << u64_to_string(r.wm_digest) << "; ";
    if (r.cs_digest != g.cs_digest) {
      os << "cs digest " << u64_to_string(g.cs_digest) << " != recorded "
         << u64_to_string(r.cs_digest);
      if (!r.cs_entries.empty() || !g.cs_entries.empty())
        os << " (" << only_in(g.cs_entries, r.cs_entries)
           << " instantiation(s) only in this run, "
           << only_in(r.cs_entries, g.cs_entries)
           << " only in the reference)";
    }
    return os.str();
  }
  if (ref.cycles.size() != got.cycles.size()) {
    *first_bad_cycle = n;
    std::ostringstream os;
    os << "run recorded " << got.cycles.size()
       << " quiescent point(s), reference has " << ref.cycles.size();
    return os.str();
  }
  return "";
}

}  // namespace

EngineConfig config_from(const RunSpec& spec) { return shape_config(spec); }

RecordedRun record_run(const RunSpec& spec, obs::Observability* obs) {
  const ops5::Program program =
      ops5::Program::from_source(spec.workload.source);
  Recorder recorder(spec.store_cs_entries);
  recorder.attach(obs);
  EngineConfig config = config_from(spec);
  config.options.obs = obs;
  config.options.rr_record = &recorder;
  Engine engine(program, config);
  load_wmes(engine, spec.workload.initial_wmes);
  RecordedRun out;
  out.result = engine.run();
  out.log =
      recorder.finish(header_from(spec, config, program), engine.trace());
  return out;
}

ReplayOutcome replay_run(const ReplayLog& log, obs::Observability* obs) {
  const ops5::Program program =
      ops5::Program::from_source(log.header.source);
  if (serve::Checkpoint::fingerprint_of(program) !=
      log.header.program_fingerprint)
    throw std::runtime_error(
        "replay: log program fingerprint does not match its source");
  EngineConfig config;
  try {
    config = shape_config(log.header);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("replay: log header: ") + e.what());
  }
  ReplayCoordinator coord(log, &program);
  coord.attach(obs);
  config.options.obs = obs;
  config.options.rr_replay = &coord;
  Engine engine(program, config);
  load_wmes(engine, log.header.initial_wmes);
  ReplayOutcome out;
  out.result = engine.run();
  out.trace = engine.trace();
  out.report = coord.report();
  const std::string trace_diff =
      trace_divergence(log.trace, out.trace, program);
  if (!trace_diff.empty()) {
    out.report.trace_diverged = true;
    if (!out.report.detail.empty()) out.report.detail += "\n";
    out.report.detail += "firing trace: " + trace_diff;
  }
  return out;
}

FaultRunResult run_with_faults(const RunSpec& spec, const FaultPlan& plan,
                               std::uint64_t restart_at_cycle) {
  const ops5::Program program =
      ops5::Program::from_source(spec.workload.source);
  FaultRunResult out;

  // Sequential reference (digest-only recording: per-cycle WM/CS digests).
  RunSpec ref_spec = spec;
  ref_spec.mode = kModeNames.name_of(kReplayableModes[0]);
  Recorder ref_recorder(spec.store_cs_entries);
  EngineConfig ref_config = config_from(ref_spec);
  ref_config.options.rr_record = &ref_recorder;
  Engine ref_engine(program, ref_config);
  load_wmes(ref_engine, spec.workload.initial_wmes);
  ref_engine.run();
  const ReplayLog ref_log = ref_recorder.finish(
      header_from(ref_spec, ref_config, program), ref_engine.trace());

  FaultInjector faults(plan);
  if (restart_at_cycle > 0) {
    // WorkerDeath recovery: run faulted to the restart point, checkpoint,
    // resume fault-free in a fresh engine (as an operator would after
    // losing a match process).
    EngineConfig config = config_from(spec);
    config.options.max_cycles = restart_at_cycle;
    config.options.rr_faults = &faults;
    auto stage1 = std::make_unique<Engine>(program, config);
    load_wmes(*stage1, spec.workload.initial_wmes);
    stage1->run();
    const serve::Checkpoint cp = serve::Checkpoint::capture(stage1->base());
    stage1.reset();

    Engine stage2(program, config_from(spec));
    cp.restore(stage2.base());
    out.result = stage2.run();
    out.trace = stage2.trace();
    out.used_checkpoint_restart = true;
    const std::string diff =
        trace_divergence(ref_log.trace, out.trace, program);
    if (!diff.empty()) {
      out.detail = "firing trace: " + diff;
      // Trace index i is the firing of cycle i+1.
      for (std::size_t i = 0; i < ref_log.trace.size(); ++i) {
        if (i >= out.trace.size() || !(out.trace[i] == ref_log.trace[i])) {
          out.first_bad_cycle = i + 1;
          break;
        }
      }
      return out;
    }
    out.reconverged = true;
    return out;
  }

  // Single-stage faulted run, recorded so every quiescent point can be
  // digest-checked against the reference.
  Recorder got_recorder(spec.store_cs_entries);
  EngineConfig config = config_from(spec);
  config.options.rr_faults = &faults;
  config.options.rr_record = &got_recorder;
  Engine engine(program, config);
  load_wmes(engine, spec.workload.initial_wmes);
  out.result = engine.run();
  out.trace = engine.trace();
  const ReplayLog got_log = got_recorder.finish(
      header_from(spec, config, program), engine.trace());

  const std::string cycle_diff =
      diff_cycles(ref_log, got_log, &out.first_bad_cycle);
  if (!cycle_diff.empty()) {
    out.detail = cycle_diff;
    const std::string diff =
        trace_divergence(ref_log.trace, out.trace, program);
    if (!diff.empty()) out.detail += "\nfiring trace: " + diff;
    return out;
  }
  const std::string diff = trace_divergence(ref_log.trace, out.trace, program);
  if (!diff.empty()) {
    out.detail = "firing trace: " + diff;
    return out;
  }
  out.reconverged = true;
  return out;
}

RunSpec fuzz_spec(std::uint64_t seed, const FuzzOptions& opt) {
  workloads::RandomParams params;
  if (opt.fast) {
    params.num_productions = 8;
    params.num_initial_wmes = 16;
  }
  RunSpec spec;
  spec.workload = workloads::random_program(seed, params);
  spec.mode = opt.mode;
  spec.scheduler = opt.scheduler;
  // Rotate the fuzz corpus across both lock disciplines so the fault plans
  // exercise the default Simple locks and MRSW requeues alike.
  spec.lock_scheme = kLockSchemeNames.name_of(
      seed % 2 == 0 ? match::LockScheme::Simple : match::LockScheme::Mrsw);
  spec.match_processes = 3;
  spec.task_queues = 2;
  spec.seed = seed;
  spec.max_cycles = opt.fast ? 40 : 120;
  return spec;
}

FaultPlan shrink_plan(const RunSpec& spec, const FaultPlan& plan) {
  auto fails = [&](const FaultPlan& p) {
    return !run_with_faults(spec, p).reconverged;
  };
  FaultPlan cur = plan;
  if (!fails(cur)) return plan;
  // Greedy 1-minimal op removal.
  bool changed = true;
  while (changed && cur.ops.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < cur.ops.size(); ++i) {
      FaultPlan cand = cur;
      cand.ops.erase(cand.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        cur = std::move(cand);
        changed = true;
        break;
      }
    }
  }
  // Charge reduction on the survivors.
  for (std::size_t i = 0; i < cur.ops.size(); ++i) {
    if (cur.ops[i].count <= 1) continue;
    FaultPlan cand = cur;
    cand.ops[i].count = 1;
    if (fails(cand)) cur = std::move(cand);
  }
  return cur;
}

FuzzOutcome fuzz_one(std::uint64_t seed, const FuzzOptions& opt) {
  FuzzOutcome out;
  out.seed = seed;
  const RunSpec spec = fuzz_spec(seed, opt);
  FaultPlan plan =
      FaultPlan::random(seed, spec.match_processes);
  if (opt.seed_bug) {
    FaultOp bug;
    bug.kind = FaultKind::LoseTask;
    bug.endpoint =
        static_cast<unsigned>(seed % static_cast<std::uint64_t>(
                                         spec.match_processes));
    bug.at_cycle = 0;
    bug.count = 2;
    plan.ops.push_back(bug);
  }
  out.plan = plan;
  const FaultRunResult r = run_with_faults(spec, plan);
  out.passed = r.reconverged;
  out.first_bad_cycle = r.first_bad_cycle;
  out.detail = r.detail;
  if (!out.passed) {
    out.shrunk = shrink_plan(spec, plan);
    // Minimal failing cycle prefix: everything past the first bad cycle is
    // noise in the reproducer.
    out.shrunk_max_cycles = spec.max_cycles;
    RunSpec short_spec = spec;
    short_spec.max_cycles =
        r.first_bad_cycle > 0 ? r.first_bad_cycle : 1;
    if (short_spec.max_cycles < spec.max_cycles &&
        !run_with_faults(short_spec, out.shrunk).reconverged)
      out.shrunk_max_cycles = short_spec.max_cycles;
  }
  return out;
}

obs::Json fuzz_artifact(const FuzzOutcome& outcome) {
  obs::JsonObject o;
  o.emplace_back("schema", "psme.rr.fuzz.v1");
  o.emplace_back("seed", u64_to_string(outcome.seed));
  o.emplace_back("passed", outcome.passed);
  o.emplace_back("plan", outcome.plan.to_json());
  if (!outcome.passed) {
    o.emplace_back("first_bad_cycle",
                   static_cast<double>(outcome.first_bad_cycle));
    o.emplace_back("detail", outcome.detail);
    o.emplace_back("shrunk_plan", outcome.shrunk.to_json());
    o.emplace_back("shrunk_max_cycles",
                   static_cast<double>(outcome.shrunk_max_cycles));
  }
  return obs::Json(std::move(o));
}

}  // namespace psme::rr
