// shard_compare: sessions/sec and ns/task versus shard count, on both
// psme.shard.v1 transports, for both keyless placements (owner,
// replicate) and the three paper workloads.
//
// Two throughput columns per row:
//
//  - virt/s: sessions per VIRTUAL second — the interconnect-priced
//    makespan (per sweep, the slowest contacted shard's path through
//    CostModel::path_cost at 0.75 MIPS with msg_fixed/msg_per_byte batch
//    pricing: max(compute, comm), since the credit-windowed exchange
//    keeps each shard draining while its frames are in flight).
//    Deterministic: a fixed workload and topology always produce the
//    same number, so this is the column BENCH_shard_seed.json gates in
//    CI. It models an Encore-class machine with one processor per
//    shard, which is the honest way to show shard scaling on a small CI
//    box — see EXPERIMENTS.md for the wall-clock caveat.
//  - wall/s: sessions per wall-clock second, printed for reference and
//    NOT gated (noisy, and the shard threads/processes share the host's
//    cores with the coordinator, so it does not show shard scaling).
//    Each configuration runs once unrecorded as warmup before the
//    measured run so allocator and page-cache state don't bleed across
//    rows.
//
// Each row's speedup is against the 1-shard row of its own
// workload/transport/keyless series.
//
// `--json FILE` mirrors every row (schema psme.bench.v1, keyed by
// workload/transport/shards/keyless, metric sessions_per_sec = the
// virtual column); tools/check_bench_regression.py compares against the
// committed BENCH_shard_seed.json. The bench itself exits 1 if the
// headline shapes break (inproc, 8 shards): each workload's replicate
// row must clear its own 1-shard row by 1.5x (weaver, rubik) or 1.2x
// (tourney), and replication must relay fewer rubik forwards than the
// single owner does.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "shard/shard_group.hpp"

namespace psme::bench {
namespace {

struct Row {
  std::uint64_t sessions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t tasks = 0;
  double virt_seconds = 0;
  double wall_seconds = 0;
  shard::GroupStats stats;
};

Row run_group(const ops5::Program& program, const workloads::Workload& wl,
              std::uint16_t shards, shard::TransportKind transport,
              std::uint32_t sessions, shard::KeylessPolicy keyless) {
  EngineOptions opt;
  opt.hash_buckets = 64;
  shard::ShardGroupConfig cfg;
  cfg.shards = shards;
  cfg.sessions = sessions;
  cfg.transport = transport;
  cfg.keyless = keyless;
  shard::ShardGroup group(program, opt, cfg);
  for (std::uint32_t s = 0; s < sessions; ++s)
    for (const std::string& lit : wl.initial_wmes) group.make(s, lit);
  const auto t0 = std::chrono::steady_clock::now();
  group.run_all();
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.sessions = sessions;
  for (std::uint32_t s = 0; s < sessions; ++s)
    row.cycles += group.control(s).result().stats.cycles;
  row.stats = group.group_stats();
  row.tasks = row.stats.tasks;
  row.virt_seconds = cfg.cost.to_seconds(row.stats.makespan_vtime);
  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return row;
}

struct Policy {
  shard::KeylessPolicy keyless;
  const char* name;
};

}  // namespace
}  // namespace psme::bench

int main(int argc, char** argv) {
  using namespace psme;
  using namespace psme::bench;

  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf(
          "usage: shard_compare [--json FILE]\n"
          "\n"
          "Sweeps sessions/sec vs shard count for the paper workloads under\n"
          "both keyless placements (owner, replicate) on both psme.shard.v1\n"
          "transports. PSME_BENCH_FAST=1 runs the reduced CI scale. Gate on\n"
          "the virt/s column only: the shard threads/processes share the\n"
          "host's cores, so wall/s does not show shard scaling and is\n"
          "printed for reference, never gated.\n");
      return 0;
    }
  }

  BenchJson json("shard_compare", argc, argv);
  const bool fast = fast_mode();
  const std::uint32_t sessions = fast ? 4 : 16;
  json.stamp("sessions", obs::Json(std::uint64_t{sessions}));

  std::vector<ProgramSpec> specs;
  specs.push_back({"weaver", workloads::weaver(fast ? 6 : 16, 2)});
  specs.push_back({"rubik", workloads::rubik(fast ? 6 : 12)});
  specs.push_back({"tourney", workloads::tourney(fast ? 6 : 10, false)});

  const std::vector<Policy> policies = {
      {shard::KeylessPolicy::Owner, "owner"},
      {shard::KeylessPolicy::Replicate, "replicate"},
  };

  std::printf("\n=== shard_compare: sessions/sec vs shard count ===\n");
  std::printf("(virt/s gated against BENCH_shard_seed.json; wall/s "
              "informational)\n\n");
  std::printf("%-8s %-7s %-9s %6s %9s %9s %9s %10s %8s\n", "workload",
              "transport", "keyless", "shards", "virt/s", "speedup",
              "wall/s", "ns/task", "fwd");

  // Headline shapes, checked after the sweep (inproc, 8 shards).
  int rc = 0;
  for (const ProgramSpec& spec : specs) {
    const auto program = ops5::Program::from_source(spec.workload.source);
    double replicate_s8_speedup = 0;
    std::uint64_t owner_s8_forwards = 0, replicate_s8_forwards = 0;
    for (const shard::TransportKind transport :
         {shard::TransportKind::InProc, shard::TransportKind::Socket}) {
      const char* tname =
          transport == shard::TransportKind::Socket ? "socket" : "inproc";
      for (const Policy& policy : policies) {
        double base_virt = 0;  // this series' 1-shard row
        for (const std::uint16_t shards : {1, 2, 4, 8}) {
          // Warmup: same config, result discarded (allocator/page-cache
          // state would otherwise bleed into the first wall-clock row).
          run_group(program, spec.workload, shards, transport, sessions,
                    policy.keyless);
          const Row row = run_group(program, spec.workload, shards,
                                    transport, sessions, policy.keyless);
          const double virt_sps =
              row.virt_seconds > 0 ? row.sessions / row.virt_seconds : 0;
          const double wall_sps =
              row.wall_seconds > 0 ? row.sessions / row.wall_seconds : 0;
          const double ns_per_task =
              row.tasks > 0 ? row.wall_seconds * 1e9 / row.tasks : 0;
          if (shards == 1) base_virt = virt_sps;
          const double speedup = base_virt > 0 ? virt_sps / base_virt : 0;
          std::printf("%-8s %-7s %-9s %6u %9.2f %8.2fx %9.1f %10.1f "
                      "%8llu\n",
                      spec.label.c_str(), tname, policy.name, shards,
                      virt_sps, speedup, wall_sps, ns_per_task,
                      static_cast<unsigned long long>(row.stats.forwards));

          if (transport == shard::TransportKind::InProc && shards == 8) {
            if (policy.keyless == shard::KeylessPolicy::Replicate) {
              replicate_s8_speedup = speedup;
              replicate_s8_forwards = row.stats.forwards;
            } else {
              owner_s8_forwards = row.stats.forwards;
            }
          }

          obs::JsonObject r;
          r.emplace_back("label",
                         obs::Json(spec.label + "/" + tname + "/s" +
                                   std::to_string(shards) + "/" +
                                   policy.name));
          r.emplace_back("workload", obs::Json(spec.label));
          r.emplace_back("transport", obs::Json(tname));
          r.emplace_back("shards", obs::Json(std::uint64_t{shards}));
          r.emplace_back("keyless", obs::Json(policy.name));
          r.emplace_back("sessions", obs::Json(row.sessions));
          r.emplace_back("cycles", obs::Json(row.cycles));
          r.emplace_back("tasks", obs::Json(row.tasks));
          // The gated metric: deterministic, interconnect-priced.
          r.emplace_back("sessions_per_sec", obs::Json(virt_sps));
          r.emplace_back("speedup_vs_one_shard", obs::Json(speedup));
          r.emplace_back("wall_sessions_per_sec", obs::Json(wall_sps));
          r.emplace_back("ns_per_task_wall", obs::Json(ns_per_task));
          r.emplace_back("makespan_vtime",
                         obs::Json(std::uint64_t{row.stats.makespan_vtime}));
          r.emplace_back("compute_vtime",
                         obs::Json(std::uint64_t{row.stats.compute_vtime}));
          r.emplace_back("comm_vtime",
                         obs::Json(std::uint64_t{row.stats.comm_vtime}));
          r.emplace_back("overlap_saved_vtime",
                         obs::Json(std::uint64_t{row.stats.overlap_saved_vtime}));
          r.emplace_back("replicated_nodes",
                         obs::Json(std::uint64_t{row.stats.replicated_nodes}));
          r.emplace_back(
              "bytes", obs::Json(std::uint64_t{row.stats.bytes_sent +
                                               row.stats.bytes_received}));
          r.emplace_back("forwards", obs::Json(row.stats.forwards));
          json.add(obs::Json(std::move(r)));
        }
      }
    }

    // Replication must keep every workload scaling past one shard, and
    // must cut rubik's hub relays against the single owner.
    const double floor = spec.label == "tourney" ? 1.2 : 1.5;
    if (replicate_s8_speedup < floor) {
      std::fprintf(stderr,
                   "shard_compare: %s replicate speedup at 8 shards is "
                   "%.3fx, below the %.1fx floor\n",
                   spec.label.c_str(), replicate_s8_speedup, floor);
      rc = 1;
    }
    if (spec.label == "rubik" && replicate_s8_forwards >= owner_s8_forwards) {
      std::fprintf(stderr,
                   "shard_compare: rubik replicate relays %llu forwards at 8 "
                   "shards, not fewer than owner's %llu\n",
                   static_cast<unsigned long long>(replicate_s8_forwards),
                   static_cast<unsigned long long>(owner_s8_forwards));
      rc = 1;
    }
  }
  return rc;
}
