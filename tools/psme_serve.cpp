// psme_serve: the serving subsystem's front end.
//
// Two modes:
//
//   psme_serve --loadgen [options]
//     Runs the open/closed-loop load generator against an in-process
//     Server and prints a throughput/latency report (see docs/serving.md).
//     Exits 1 if any session's firing trace diverged from the reference
//     single-session run — the zero-divergence acceptance check.
//
//   psme_serve --stdin (--workload NAME | PROGRAM.ops) [options]
//     Single-session REPL: reads protocol commands (serve/session.hpp)
//     from stdin, one per line, and prints one response per line. With
//     --workload the workload's initial wmes are preloaded.
//
// Options:
//   --sessions N      loadgen: concurrent sessions            (default 100)
//   --workers N       server worker threads                   (default 4)
//   --queue-cap N     server request-queue capacity           (default 1024)
//   --mode M          engine mode, named as in src/engine/engine.hpp:
//                     seq|vs2|vs1|lisp|threads|sim|treat      (default sim)
//   --procs N         match processes for threads/sim modes   (default 4)
//   --locks S         hash-line lock scheme for threads/sim
//                     modes: simple|mrsw                   (default simple)
//   --cycles N        loadgen: cycles per run slice           (default 25)
//   --slices N        loadgen: run slices per session         (default 4)
//   --think-ms X      loadgen: closed-loop think time         (default 0)
//   --rate X          loadgen: open-loop arrivals/s; 0=closed (default 0)
//   --deadline-ms X   per-request deadline; 0 = none          (default 0)
//   --seed N          loadgen: workload-mix seed              (default 1)
//   --no-verify       loadgen: skip the trace-divergence check
//   --json FILE       loadgen: also write the report as JSON
//   --shards N        stdin: back the session with a shard::ShardGroup of
//                     N shared-nothing shards (docs/sharding.md) instead
//                     of one engine; checkpoint/restore still speak
//                     psme.checkpoint.v1, so a session drains out of /
//                     into any topology                       (default 0)
//   --transport T     stdin: shard interconnect, inproc|socket; needs
//                     --shards                           (default inproc)
//   --keyless P       stdin: keyless-join placement, owner|replicate
//                     (docs/sharding.md); needs --shards
//                                                     (default replicate)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "serve/loadgen.hpp"
#include "shard/shard_group.hpp"
#include "workloads/workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "psme_serve: " << msg << "\n";
  std::cerr << "usage: psme_serve --loadgen [options]\n"
            << "       psme_serve --stdin (--workload NAME | PROGRAM.ops)"
               " [options]\n"
            << "see the header of tools/psme_serve.cpp for options\n";
  std::exit(2);
}

int repl(psme::serve::Session& session,
         const std::vector<std::string>& initial_wmes) {
  for (const std::string& wme : initial_wmes) {
    const psme::serve::Response r = session.execute("make " + wme);
    if (!r.ok) {
      std::cerr << "psme_serve: loading initial wme " << wme << ": "
                << r.render() << "\n";
      return 1;
    }
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    std::cout << session.execute(line).render() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool loadgen = false, use_stdin = false;
  std::string workload_name, program_path, json_path;
  psme::EngineConfig config;
  psme::EngineMode mode{psme::ExecutionMode::SimulatedMultimax};
  int procs = 4;
  int shards = 0;
  std::string transport = "inproc";
  std::string keyless = "replicate";
  bool keyless_set = false;
  psme::serve::ServerConfig server_config;
  psme::serve::LoadGenConfig gen;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage();
      else if (arg == "--loadgen") loadgen = true;
      else if (arg == "--stdin") use_stdin = true;
      else if (arg == "--sessions") gen.sessions = std::stoi(next());
      else if (arg == "--workers") server_config.workers = std::stoi(next());
      else if (arg == "--queue-cap")
        server_config.queue_capacity =
            static_cast<std::size_t>(std::stoll(next()));
      else if (arg == "--mode") mode = psme::kModeNames.parse(next());
      else if (arg == "--procs") procs = std::stoi(next());
      else if (arg == "--locks")
        config.options.lock_scheme = psme::kLockSchemeNames.parse(next());
      else if (arg == "--cycles") gen.run_cycles = std::stoi(next());
      else if (arg == "--slices") gen.run_slices = std::stoi(next());
      else if (arg == "--think-ms") gen.think_ms = std::stod(next());
      else if (arg == "--rate") gen.open_rate = std::stod(next());
      else if (arg == "--deadline-ms") gen.deadline_ms = std::stod(next());
      else if (arg == "--seed")
        gen.seed = static_cast<std::uint64_t>(std::stoull(next()));
      else if (arg == "--no-verify") gen.verify_traces = false;
      else if (arg == "--json") json_path = next();
      else if (arg == "--shards") shards = std::stoi(next());
      else if (arg == "--transport") transport = next();
      else if (arg == "--keyless") { keyless = next(); keyless_set = true; }
      else if (arg == "--workload") workload_name = next();
      else if (!arg.empty() && arg[0] == '-')
        usage(("unknown option " + arg).c_str());
      else program_path = arg;
    }
  } catch (const std::invalid_argument& e) {
    usage(e.what());  // a name outside the engine vocabulary, or a bad number
  }
  if (loadgen == use_stdin) usage("pick exactly one of --loadgen / --stdin");
  if (shards < 0 || shards > 0xffff) usage("--shards out of range");
  if (shards > 0 && loadgen)
    usage("--shards backs a --stdin session (loadgen drives engine modes)");
  if (transport != "inproc" && transport != "socket")
    usage("unknown transport (inproc|socket)");
  if (shards == 0 && transport != "inproc")
    usage("--transport needs --shards");
  if (keyless != "owner" && keyless != "replicate")
    usage("unknown keyless policy (owner|replicate)");
  if (shards == 0 && keyless_set) usage("--keyless needs --shards");

  config.mode = mode.mode;
  config.options.memory = mode.memory;
  if (psme::is_parallel(config.mode)) config.options.match_processes = procs;

  try {
    if (use_stdin) {
      std::string source;
      std::vector<std::string> initial_wmes;
      if (!workload_name.empty()) {
        psme::workloads::Workload w;
        if (workload_name == "weaver") w = psme::workloads::weaver();
        else if (workload_name == "rubik") w = psme::workloads::rubik();
        else if (workload_name == "tourney") w = psme::workloads::tourney();
        else usage("unknown workload");
        source = w.source;
        initial_wmes = w.initial_wmes;  // preloaded so `run` has work
      } else if (!program_path.empty()) {
        std::ifstream in(program_path);
        if (!in) usage(("cannot open " + program_path).c_str());
        std::ostringstream ss;
        ss << in.rdbuf();
        source = ss.str();
      } else {
        usage("--stdin needs --workload or a program file");
      }
      const psme::ops5::Program program =
          psme::ops5::Program::from_source(source);
      if (shards > 0) {
        psme::shard::ShardGroupConfig scfg;
        scfg.shards = static_cast<std::uint16_t>(shards);
        scfg.sessions = 1;
        scfg.transport = transport == "socket"
                             ? psme::shard::TransportKind::Socket
                             : psme::shard::TransportKind::InProc;
        scfg.keyless = keyless == "owner"
                           ? psme::shard::KeylessPolicy::Owner
                           : psme::shard::KeylessPolicy::Replicate;
        psme::shard::ShardGroup group(program, config.options, scfg);
        psme::serve::Session session(program, &group, 0);
        return repl(session, initial_wmes);
      }
      psme::serve::Session session(program, config);
      return repl(session, initial_wmes);
    }

    gen.engine = config;
    psme::obs::Registry registry;
    psme::serve::Server server(server_config);
    const psme::serve::LoadGenReport report =
        psme::serve::run_loadgen(server, gen, registry);
    const psme::serve::ServerStats stats = server.stats();

    std::cout << report.render()
              << "server:      " << stats.accepted << " accepted, "
              << stats.shed_overload << " shed-overload, "
              << stats.shed_deadline << " shed-deadline\n";
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) usage(("cannot write " + json_path).c_str());
      out << report.to_json().dump(2) << "\n";
    }
    if (report.divergent > 0) {
      std::cerr << "psme_serve: " << report.divergent
                << " session(s) diverged from the reference trace\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "psme_serve: " << e.what() << "\n";
    return 1;
  }
}
