// psme_rr: record, replay, and fault-fuzz PSM-E runs (src/rr/).
//
// Usage:
//   psme_rr record --workload NAME --out FILE [options]
//   psme_rr replay FILE [--metrics-json FILE]
//   psme_rr fuzz [--seeds N] [--start S] [--fast] [--seed-bug] [options]
//
// record options:
//   --workload {weaver|rubik|tourney|tourney-fixed|random}
//   --mode {seq|threads|sim}   engine to record (default threads)
//   --sched {central|steal}    task-scheduling discipline
//   --locks {simple|mrsw}      hash-line lock scheme: exclusive spin
//                              locks or the paper's multiple-reader-
//                              single-writer locks
//   --strategy {lex|mea}
//   --procs N --queues N --cycles N
//   --seed S                   workload seed (selects `random`'s program)
//   --fast                     reduced workload scale
//   --no-cs-entries            omit per-instantiation hashes (smaller log)
//
// replay: rebuilds the engine the log describes (program source and
// initial wmes are embedded), re-runs it pinned to the recorded schedule,
// and exits 1 on any divergence, printing the first bad cycle.
//
// fuzz: for each seed draws a random program + random benign fault plan,
// runs it faulted, and checks it reconverges to the sequential reference;
// exits 1 if any seed fails, after shrinking the plan to a minimal
// reproducer. --seed-bug plants a LoseTask bug instead and expects the
// harness to catch and shrink it (exit 1 if it slips through).
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/observability.hpp"
#include "rr/harness.hpp"

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: psme_rr record --workload NAME --out FILE [options]\n"
               "       psme_rr replay FILE [--metrics-json FILE]\n"
               "       psme_rr fuzz [--seeds N] [--start S] [--fast] "
               "[--seed-bug]\n";
  std::exit(msg ? 1 : 0);
}

psme::workloads::Workload resolve_workload(const std::string& name,
                                           bool fast, std::uint64_t seed) {
  using namespace psme::workloads;
  if (name == "weaver") return fast ? weaver(8, 2) : weaver();
  if (name == "rubik") return fast ? rubik(8) : rubik();
  if (name == "tourney") return fast ? tourney(8) : tourney();
  if (name == "tourney-fixed")
    return fast ? tourney(8, true) : tourney(14, true);
  if (name == "random") return random_program(seed);
  usage(("unknown workload " + name).c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) usage(("cannot write " + path).c_str());
  out << text;
}

int cmd_record(int argc, char** argv) {
  psme::rr::RunSpec spec;
  std::string workload = "tourney", out_path;
  bool fast = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") workload = next();
    else if (arg == "--mode") spec.mode = next();
    else if (arg == "--sched") spec.scheduler = next();
    else if (arg == "--locks") spec.lock_scheme = next();
    else if (arg == "--strategy") spec.strategy = next();
    else if (arg == "--procs") spec.match_processes = std::stoi(next());
    else if (arg == "--queues") spec.task_queues = std::stoi(next());
    else if (arg == "--cycles")
      spec.max_cycles = static_cast<std::uint64_t>(std::stoll(next()));
    else if (arg == "--seed")
      spec.seed = static_cast<std::uint64_t>(std::stoull(next()));
    else if (arg == "--fast") fast = true;
    else if (arg == "--no-cs-entries") spec.store_cs_entries = false;
    else if (arg == "--out") out_path = next();
    else usage(("unknown record option " + arg).c_str());
  }
  if (out_path.empty()) usage("record needs --out FILE");
  spec.workload = resolve_workload(workload, fast, spec.seed);
  psme::rr::RecordedRun run;
  try {
    run = psme::rr::record_run(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());  // an unknown --mode/--sched/--locks/--strategy
  }
  write_file(out_path, run.log.serialize());
  std::cout << "recorded " << run.log.header.workload << " (" << spec.mode
            << "/" << spec.scheduler << "): " << run.log.cycles.size()
            << " quiescent points, " << run.log.pop_count()
            << " scheduling decisions -> " << out_path << "\n";
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string log_path, metrics_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--metrics-json") metrics_path = next();
    else if (!arg.empty() && arg[0] == '-')
      usage(("unknown replay option " + arg).c_str());
    else log_path = arg;
  }
  if (log_path.empty()) usage("replay needs a log file");
  psme::rr::ReplayLog log;
  std::string error;
  if (!psme::rr::ReplayLog::deserialize(read_file(log_path), &log, &error))
    usage(error.c_str());
  psme::obs::Observability obs;
  psme::rr::ReplayOutcome outcome;
  try {
    outcome = psme::rr::replay_run(log, metrics_path.empty() ? nullptr : &obs);
  } catch (const std::runtime_error& e) {
    usage(e.what());  // a header this build cannot run, or another program
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) usage(("cannot write " + metrics_path).c_str());
    obs.registry.write_json(out);
  }
  const psme::rr::ReplayReport& r = outcome.report;
  std::cout << "replayed " << log.header.workload << " (" << log.header.mode
            << "/" << log.header.scheduler << "): " << r.cycles_checked
            << " cycles checked, " << r.pops_matched
            << " scheduling decisions matched\n";
  if (r.ok()) {
    std::cout << "bit-identical: every cycle digest matches\n";
    return 0;
  }
  if (r.digest_diverged)
    std::cout << "DIVERGED at cycle " << r.first_bad_cycle << "\n";
  else if (r.schedule_diverged)
    std::cout << "DIVERGED: schedule (decision " << r.schedule_divergence_pop
              << ")\n";
  else
    std::cout << "DIVERGED: firing trace\n";
  if (!r.detail.empty()) std::cout << r.detail << "\n";
  return 1;
}

int cmd_fuzz(int argc, char** argv) {
  psme::rr::FuzzOptions opt;
  std::uint64_t seeds = 10, start = 1;
  std::string artifact_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--seeds") seeds = std::stoull(next());
    else if (arg == "--start") start = std::stoull(next());
    else if (arg == "--fast") opt.fast = true;
    else if (arg == "--mode") opt.mode = next();
    else if (arg == "--sched") opt.scheduler = next();
    else if (arg == "--seed-bug") opt.seed_bug = true;
    else if (arg == "--artifact") artifact_path = next();
    else usage(("unknown fuzz option " + arg).c_str());
  }
  std::uint64_t failures = 0;
  for (std::uint64_t s = start; s < start + seeds; ++s) {
    const psme::rr::FuzzOutcome out = psme::rr::fuzz_one(s, opt);
    if (out.passed) {
      std::cout << "seed " << s << ": ok (" << out.plan.describe() << ")\n";
      continue;
    }
    ++failures;
    std::cout << "seed " << s << ": FAILED at cycle " << out.first_bad_cycle
              << "\n  plan:   " << out.plan.describe()
              << "\n  shrunk: " << out.shrunk.describe() << " (cycles <= "
              << out.shrunk_max_cycles << ")\n";
    if (!out.detail.empty()) std::cout << "  " << out.detail << "\n";
    if (!artifact_path.empty())
      write_file(artifact_path, psme::rr::fuzz_artifact(out).dump(2));
  }
  if (opt.seed_bug) {
    // Planted bugs must be caught (and the run is expected to fail).
    if (failures == 0) {
      std::cout << "seeded bug was NOT detected\n";
      return 1;
    }
    std::cout << failures << "/" << seeds << " seeded bugs caught\n";
    return 0;
  }
  std::cout << (seeds - failures) << "/" << seeds
            << " benign fault plans reconverged\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("no subcommand");
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") usage();
  if (cmd == "record") return cmd_record(argc - 2, argv + 2);
  if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
  if (cmd == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
  usage(("unknown subcommand " + cmd).c_str());
}
