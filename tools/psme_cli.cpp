// psme: command-line driver for the PSM-E OPS5 engine.
//
// Usage:
//   psme_cli PROGRAM.ops [options]
//   psme_cli --workload {weaver|rubik|tourney|tourney-fixed|random} [options]
//
// Options:
//   --mode {seq|vs1|lisp|threads|sim|treat}  execution engine (default seq/vs2)
//   --procs N        match processes for threads/sim modes (default 4)
//   --queues N       task queues (default 1)
//   --sched {central|steal}   task scheduler for threads/sim modes:
//                    the paper's central spin-locked queues, or per-worker
//                    lock-free deques with work stealing (default steal
//                    on threads, central on sim, the paper's discipline)
//   --locks {simple|mrsw}   hash-line lock scheme: exclusive spin locks
//                    or the paper's multiple-reader-single-writer locks
//                    (threads/sim/worlds kernels)
//   --strategy {lex|mea}
//   --worlds N       run N independent copies of the program as world
//                    slots of one world::BatchEngine (shared Rete network
//                    + bytecode, per-world working memory); prints a
//                    per-world stop summary. Sequential-kernel modes only.
//   --shards N       partition the match across N shared-nothing shards
//                    of a shard::ShardGroup speaking psme.shard.v1
//                    (docs/sharding.md); prints per-session stop and
//                    interconnect summaries. Sequential-kernel (seq/vs2)
//                    mode only. Combines with --worlds: the worlds become
//                    sessions of the one sharded group.
//   --transport {inproc|socket}   shard interconnect: in-process threads
//                    or forked processes over socketpairs (default
//                    inproc). Needs --shards.
//   --keyless {owner|replicate}   keyless-join placement under --shards:
//                    hash every keyless node to one owner shard, or
//                    replicate its wme-side memory to all shards so
//                    probes stay local (default replicate). Needs
//                    --shards.
//   --no-vm          interpret the join tests instead of running the
//                    compiled register bytecode (A/B comparison)
//   --seed S         workload seed: selects --workload random's program and
//                    is stamped into EngineOptions for record/replay
//   --wm "(class ^attr value ...)"      add an initial wme (repeatable)
//   --wmfile FILE    file of wme literals, one per line ('#'/';' comments)
//   --cycles N       recognize-act cycle cap (default 100000)
//   --watch N        0 silent, 1 firings, 2 + wm changes
//   --network        print the compiled Rete network and exit
//   --dump-bytecode  print the disassembled register-bytecode test
//                    programs (docs/join-bytecode.md) and exit
//   --analyze        static culprit analysis + intrinsic-parallelism
//                    profile (runs the program once), then exit
//   --dump-source    print the program source and exit (workloads)
//   --stats          print match statistics after the run
//   --metrics-json FILE   write the observability registry (counters,
//                    gauges, histograms) as JSON after the run
//   --trace FILE     record per-task events (threads/sim modes) and write
//                    Chrome trace_event JSON; open in chrome://tracing or
//                    Perfetto, or summarize with tools/trace_report
//
// When PROGRAM.ops is given and PROGRAM.wm exists alongside it, that file
// is loaded automatically.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "psme.hpp"
#include "shard/shard_group.hpp"

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: psme_cli PROGRAM.ops [options]\n"
               "       psme_cli --workload NAME [options]\n"
               "see the header comment of tools/psme_cli.cpp for the "
               "option list\n";
  std::exit(msg ? 1 : 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void load_wme_file(psme::Engine& engine, const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#' ||
        line[first] == ';')
      continue;
    engine.make(line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::string workload_name;
  psme::EngineConfig config;
  config.options.match_processes = 0;
  config.options.out = &std::cout;
  config.options.max_cycles = 100000;
  int procs = 4;
  std::vector<std::string> wmes;
  std::string wmfile;
  std::string metrics_path, trace_path;
  bool print_net = false, dump_source = false, print_stats = false;
  bool dump_bytecode = false;
  bool analyze = false;
  std::uint32_t worlds = 0;
  std::uint16_t shards = 0;
  std::string transport = "inproc";
  std::string keyless = "replicate";
  bool keyless_set = false;
  std::string mode = "seq";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage();
    else if (arg == "--workload") workload_name = next();
    else if (arg == "--mode") mode = next();
    else if (arg == "--procs") procs = std::stoi(next());
    else if (arg == "--queues") config.options.task_queues = std::stoi(next());
    else if (arg == "--sched") {
      const std::string v = next();
      if (v == "central") config.options.scheduler =
          psme::match::SchedulerKind::Central;
      else if (v == "steal") config.options.scheduler =
          psme::match::SchedulerKind::Steal;
      else usage("unknown scheduler");
    } else if (arg == "--locks") {
      const std::string v = next();
      if (v == "simple") config.options.lock_scheme =
          psme::match::LockScheme::Simple;
      else if (v == "mrsw") config.options.lock_scheme =
          psme::match::LockScheme::Mrsw;
      else usage("unknown lock scheme");
    } else if (arg == "--strategy") {
      const std::string v = next();
      if (v == "lex") config.options.strategy = psme::CrStrategy::Lex;
      else if (v == "mea") config.options.strategy = psme::CrStrategy::Mea;
      else usage("unknown strategy");
    } else if (arg == "--seed") config.options.seed =
        static_cast<std::uint64_t>(std::stoull(next()));
    else if (arg == "--wm") wmes.push_back(next());
    else if (arg == "--wmfile") wmfile = next();
    else if (arg == "--cycles") config.options.max_cycles =
        static_cast<std::uint64_t>(std::stoll(next()));
    else if (arg == "--watch") config.options.watch = std::stoi(next());
    else if (arg == "--worlds") worlds =
        static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--shards") shards =
        static_cast<std::uint16_t>(std::stoul(next()));
    else if (arg == "--transport") transport = next();
    else if (arg == "--keyless") { keyless = next(); keyless_set = true; }
    else if (arg == "--no-vm") config.options.match_vm = false;
    else if (arg == "--network") print_net = true;
    else if (arg == "--dump-bytecode") dump_bytecode = true;
    else if (arg == "--analyze") analyze = true;
    else if (arg == "--dump-source") dump_source = true;
    else if (arg == "--stats") print_stats = true;
    else if (arg == "--metrics-json") metrics_path = next();
    else if (arg == "--trace") trace_path = next();
    else if (!arg.empty() && arg[0] == '-') usage(("unknown option " + arg).c_str());
    else program_path = arg;
  }

  if (mode == "seq" || mode == "vs2") {
    config.mode = psme::ExecutionMode::Sequential;
  } else if (mode == "vs1") {
    config.mode = psme::ExecutionMode::Sequential;
    config.options.memory = psme::match::MemoryStrategy::List;
  } else if (mode == "lisp") {
    config.mode = psme::ExecutionMode::LispStyle;
  } else if (mode == "threads") {
    config.mode = psme::ExecutionMode::ParallelThreads;
    config.options.match_processes = procs;
  } else if (mode == "sim") {
    config.mode = psme::ExecutionMode::SimulatedMultimax;
    config.options.match_processes = procs;
  } else if (mode == "treat") {
    config.mode = psme::ExecutionMode::Treat;
  } else {
    usage("unknown mode");
  }
  if (dump_bytecode && !config.options.match_vm)
    usage("--dump-bytecode needs the bytecode VM; drop --no-vm");
  if (worlds > 0 && config.mode != psme::ExecutionMode::Sequential)
    usage("--worlds runs on the shared match kernel (seq/vs2 mode only)");
  if (shards > 0 && config.mode != psme::ExecutionMode::Sequential)
    usage("--shards partitions the sequential kernel (seq/vs2 mode only)");
  if (transport != "inproc" && transport != "socket")
    usage("unknown transport (inproc|socket)");
  if (shards == 0 && transport != "inproc")
    usage("--transport needs --shards");
  if (keyless != "owner" && keyless != "replicate")
    usage("unknown keyless policy (owner|replicate)");
  if (shards == 0 && keyless_set) usage("--keyless needs --shards");
  if (shards > 0 && config.options.memory != psme::match::MemoryStrategy::Hash)
    usage("--shards routes on hashed join keys; use --mode seq, not vs1");

  // Resolve the program and initial working memory.
  std::string source;
  std::vector<std::string> workload_wmes;
  if (!workload_name.empty()) {
    psme::workloads::Workload w;
    if (workload_name == "weaver") w = psme::workloads::weaver();
    else if (workload_name == "rubik") w = psme::workloads::rubik();
    else if (workload_name == "tourney") w = psme::workloads::tourney();
    else if (workload_name == "tourney-fixed")
      w = psme::workloads::tourney(14, true);
    else if (workload_name == "random")
      w = psme::workloads::random_program(config.options.seed);
    else usage("unknown workload");
    source = w.source;
    workload_wmes = w.initial_wmes;
  } else if (!program_path.empty()) {
    source = read_file(program_path);
  } else {
    usage("no program given");
  }

  if (dump_source) {
    std::cout << source;
    for (const std::string& w : workload_wmes) std::cout << "; wm " << w << "\n";
    return 0;
  }

  const auto program = psme::ops5::Program::from_source(source);
  std::cout << "; " << program.productions().size() << " productions, "
            << program.classes().size() << " classes\n";

  if (print_net) {
    const auto net = psme::rete::build_network(program);
    std::cout << psme::rete::print_network(*net, program);
    return 0;
  }
  if (dump_bytecode) {
    const auto net = psme::rete::build_network(program);
    std::cout << psme::rete::disassemble_network(*net, program);
    return 0;
  }
  if (analyze) {
    const auto net = psme::rete::build_network(program);
    std::cout << psme::analysis::render_report(
        psme::analysis::analyze_network(*net, program));
    std::vector<std::string> all_wmes = workload_wmes;
    all_wmes.insert(all_wmes.end(), wmes.begin(), wmes.end());
    std::cout << "\n"
              << psme::analysis::render_profile(
                     psme::analysis::profile_parallelism(
                         program, all_wmes, {}, config.options.max_cycles));
    return 0;
  }

  if (shards > 0) {
    // Sharded run: the match is partitioned across N shared-nothing
    // shards behind one coordinator; --worlds sessions (default 1) share
    // the group and its compiled network.
    const std::uint32_t sessions = worlds > 0 ? worlds : 1;
    psme::shard::ShardGroupConfig scfg;
    scfg.shards = shards;
    scfg.sessions = sessions;
    scfg.transport = transport == "socket"
                         ? psme::shard::TransportKind::Socket
                         : psme::shard::TransportKind::InProc;
    scfg.keyless = keyless == "owner" ? psme::shard::KeylessPolicy::Owner
                                      : psme::shard::KeylessPolicy::Replicate;
    psme::EngineOptions sopt = config.options;
    if (sessions > 1) sopt.watch = 0;  // same interleaving concern as --worlds
    psme::shard::ShardGroup group(program, sopt, scfg);
    for (std::uint32_t s = 0; s < sessions; ++s) {
      for (const std::string& lit : workload_wmes) group.make(s, lit);
      for (const std::string& lit : wmes) group.make(s, lit);
      group.set_max_cycles(s, config.options.max_cycles);
    }
    group.run_all();
    std::cout << "; " << shards << " shards (" << transport << ", keyless "
              << keyless << "), " << sessions
              << " session(s), one compiled network\n";
    for (std::uint32_t s = 0; s < sessions; ++s) {
      const psme::RunResult r = group.control(s).result();
      const char* why =
          r.reason == psme::StopReason::Halt ? "halt"
          : r.reason == psme::StopReason::EmptyConflictSet
              ? "empty conflict set"
              : "cycle limit";
      std::cout << "; session " << s << " stopped (" << why << ") after "
                << r.stats.cycles << " cycles, wm size "
                << group.control(s).wm->size() << "\n";
    }
    const psme::shard::GroupStats gs = group.group_stats();
    std::cout << "; interconnect: " << gs.batches << " batches, "
              << gs.frames << " frames, " << gs.bytes_sent << " B out, "
              << gs.bytes_received << " B in, " << gs.forwards
              << " forwards, " << gs.dropped << " dropped\n"
              << "; virtual time: compute " << gs.compute_vtime << ", comm "
              << gs.comm_vtime << ", makespan " << gs.makespan_vtime << "\n";
    if (gs.rounds > 0 || gs.replicated_nodes > 0)
      std::cout << "; overlap: " << gs.rounds << " round(s), saved "
                << gs.overlap_saved_vtime << " vtime; replicated "
                << gs.replicated_nodes << " keyless node(s), "
                << gs.replicated_keeps << " local keeps\n";
    if (!metrics_path.empty()) {
      psme::obs::Registry registry;
      group.export_obs(registry);
      std::ofstream out(metrics_path);
      if (!out) usage(("cannot write " + metrics_path).c_str());
      registry.write_json(out);
      std::cout << "; metrics -> " << metrics_path << "\n";
    }
    return 0;
  }

  if (worlds > 0) {
    // Batched run: every world gets the same program + initial wmes and
    // runs to its own stop. One compiled image serves them all.
    psme::EngineOptions wopt = config.options;
    wopt.worlds = worlds;
    if (worlds > 1) wopt.watch = 0;  // per-world lines would interleave
    psme::world::BatchEngine batch(program, wopt);
    auto load_world = [&](std::uint32_t w) {
      for (const std::string& lit : workload_wmes) batch.make(w, lit);
      for (const std::string& lit : wmes) batch.make(w, lit);
    };
    for (std::uint32_t w = 0; w < worlds; ++w) load_world(w);
    batch.run_all();
    std::uint64_t cycles = 0, firings = 0;
    for (std::uint32_t w = 0; w < worlds; ++w) {
      const auto& stats = batch.world(w).stats;
      cycles += stats.cycles;
      firings += stats.firings;
    }
    std::cout << "; " << worlds << " worlds, one compiled network\n"
              << "; total cycles: " << cycles
              << ", total firings: " << firings << "\n"
              << "; world 0 stopped after " << batch.world(0).stats.cycles
              << " cycles, wm size " << batch.world(0).wm->size() << "\n";
    return 0;
  }

  psme::obs::Observability obs;
  if (!metrics_path.empty() || !trace_path.empty())
    config.options.obs = &obs;

  psme::Engine engine(program, config);
  for (const std::string& w : workload_wmes) engine.make(w);
  if (!program_path.empty()) {
    const std::string side = program_path.substr(0, program_path.rfind('.')) + ".wm";
    if (std::ifstream probe(side); probe.good()) load_wme_file(engine, side);
  }
  if (!wmfile.empty()) load_wme_file(engine, wmfile);
  for (const std::string& w : wmes) engine.make(w);

  const psme::RunResult result = engine.run();
  const char* reason =
      result.reason == psme::StopReason::Halt ? "halt"
      : result.reason == psme::StopReason::EmptyConflictSet
          ? "empty conflict set"
          : "cycle limit";
  std::cout << "; stopped (" << reason << ") after " << result.stats.cycles
            << " cycles\n";
  if (config.options.obs) {
    obs.export_run(result.stats);
    psme::obs::Observability::export_config(
        config.options.match_processes, config.options.task_queues,
        static_cast<int>(config.options.lock_scheme),
        config.options.scheduler.value_or(
            config.mode == psme::ExecutionMode::ParallelThreads
                ? psme::kThreadedScheduler
                : psme::kSimScheduler) == psme::match::SchedulerKind::Steal,
        obs.registry);
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) usage(("cannot write " + metrics_path).c_str());
      obs.registry.write_json(out);
      std::cout << "; metrics -> " << metrics_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) usage(("cannot write " + trace_path).c_str());
      obs.trace.write_json(out);
      std::cout << "; trace -> " << trace_path << " ("
                << obs.trace.event_count() << " events, "
                << obs.trace.clock() << " clock)\n";
    }
  }
  if (print_stats) {
    const psme::MatchStats& m = result.stats.match;
    std::cout << "; wme changes:       " << m.wme_changes << "\n"
              << "; node activations:  " << m.node_activations << "\n"
              << "; emissions:         " << m.emissions << "\n"
              << "; conjugate pairs:   " << m.conjugate_hits << "\n"
              << "; opp examined L/R:  " << m.mean_opp_examined(psme::Side::Left)
              << " / " << m.mean_opp_examined(psme::Side::Right) << "\n"
              << "; queue contention:  " << m.queue_contention() << "\n"
              << "; line contention:   " << m.line_contention(psme::Side::Left)
              << " / " << m.line_contention(psme::Side::Right) << "\n"
              << "; match time:        " << result.stats.match_seconds
              << " s";
    if (config.mode == psme::ExecutionMode::SimulatedMultimax)
      std::cout << " (" << result.stats.sim_match_seconds
                << " virtual s at 0.75 MIPS)";
    std::cout << "\n";
  }
  return 0;
}
