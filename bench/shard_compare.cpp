// shard_compare: sessions/sec and ns/task versus shard count, on both
// psme.shard.v1 transports, across the keyless-placement x overlap
// matrix, for the three paper workloads.
//
// Two throughput columns per row:
//
//  - virt/s: sessions per VIRTUAL second — the interconnect-priced
//    makespan (per round, the slowest contacted shard's path through
//    CostModel::path_cost at 0.75 MIPS with msg_fixed/msg_per_byte batch
//    pricing; request + compute + reply summed when synchronous,
//    max(compute, comm) when the overlapped exchange is on).
//    Deterministic: a fixed workload and topology always produce the
//    same number, so this is the column BENCH_shard_seed.json gates in
//    CI. It models an Encore-class machine with one processor per
//    shard, which is the honest way to show shard scaling on a small CI
//    box — see EXPERIMENTS.md for the wall-clock caveat.
//  - wall/s: sessions per wall-clock second, printed for reference and
//    NOT gated (noisy, and on a single-core runner the shard threads/
//    processes time-slice one CPU, so it understates real scaling).
//    Each configuration runs once unrecorded as warmup before the
//    measured run so allocator and page-cache state don't bleed across
//    rows.
//
// The inproc transport sweeps the full {owner,replicate} x {off,on}
// matrix; the socket transport runs the two corner combos (the strictly
// synchronous single-owner baseline and the full optimization) since
// the policy logic is transport-independent. Every combo's speedup is
// measured against the SAME baseline: the synchronous single-owner run
// at 1 shard of that workload/transport pair — i.e. "how much faster
// than the original one-shard system", so rows are comparable across
// combos (overlap already pays off at 1 shard by hiding the
// coordinator round-trip under shard compute, and per-combo baselines
// would silently absorb that).
//
// `--json FILE` mirrors every row (schema psme.bench.v1, keyed by
// workload/transport/shards/keyless/overlap, metric sessions_per_sec =
// the virtual column); tools/check_bench_regression.py compares against
// the committed BENCH_shard_seed.json. The bench itself exits 1 if the
// headline shapes break: tourney must clear 1.3x at 8 shards with
// replicate+overlap, and rubik's replicate+overlap speedup must not
// fall below its owner+sync speedup.
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
              std::uint32_t sessions, shard::KeylessPolicy keyless,
              bool overlap) {
  EngineOptions opt;
  opt.hash_buckets = 64;
  shard::ShardGroupConfig cfg;
  cfg.shards = shards;
  cfg.sessions = sessions;
  cfg.transport = transport;
  cfg.keyless = keyless;
  cfg.overlap = overlap;
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

struct Combo {
  shard::KeylessPolicy keyless;
  bool overlap;
  const char* kname;
  const char* oname;
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
          "Sweeps sessions/sec vs shard count for the paper workloads over\n"
          "the keyless {owner,replicate} x overlap {off,on} matrix on both\n"
          "psme.shard.v1 transports. PSME_BENCH_FAST=1 runs the reduced CI\n"
          "scale. Gate on the virt/s column only: on a 1-core runner the\n"
          "shard threads/processes time-slice one CPU, so wall/s understates\n"
          "real shard scaling and is printed for reference, never gated.\n");
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

  const std::vector<Combo> full_matrix = {
      {shard::KeylessPolicy::Owner, false, "owner", "off"},
      {shard::KeylessPolicy::Owner, true, "owner", "on"},
      {shard::KeylessPolicy::Replicate, false, "replicate", "off"},
      {shard::KeylessPolicy::Replicate, true, "replicate", "on"},
  };
  const std::vector<Combo> corner_combos = {
      {shard::KeylessPolicy::Owner, false, "owner", "off"},
      {shard::KeylessPolicy::Replicate, true, "replicate", "on"},
  };

  std::printf("\n=== shard_compare: sessions/sec vs shard count ===\n");
  std::printf("(virt/s gated against BENCH_shard_seed.json; wall/s "
              "informational)\n\n");
  std::printf("%-8s %-7s %-9s %-3s %6s %9s %9s %9s %10s %8s\n", "workload",
              "transport", "keyless", "ovl", "shards", "virt/s", "speedup",
              "wall/s", "ns/task", "fwd");

  // Headline shapes, checked after the sweep (inproc, 8 shards).
  double tourney_replicate_on_s8 = 0;
  double rubik_replicate_on_s8 = 0;
  double rubik_owner_off_s8 = 0;

  for (const ProgramSpec& spec : specs) {
    const auto program = ops5::Program::from_source(spec.workload.source);
    for (const shard::TransportKind transport :
         {shard::TransportKind::InProc, shard::TransportKind::Socket}) {
      const char* tname =
          transport == shard::TransportKind::Socket ? "socket" : "inproc";
      const auto& combos = transport == shard::TransportKind::InProc
                               ? full_matrix
                               : corner_combos;
      double base_virt = 0;  // owner/off at 1 shard (first combo, first row)
      for (const Combo& combo : combos) {
        for (const std::uint16_t shards : {1, 2, 4, 8}) {
          // Warmup: same config, result discarded (allocator/page-cache
          // state would otherwise bleed into the first wall-clock row).
          run_group(program, spec.workload, shards, transport, sessions,
                    combo.keyless, combo.overlap);
          const Row row =
              run_group(program, spec.workload, shards, transport, sessions,
                        combo.keyless, combo.overlap);
          const double virt_sps =
              row.virt_seconds > 0 ? row.sessions / row.virt_seconds : 0;
          const double wall_sps =
              row.wall_seconds > 0 ? row.sessions / row.wall_seconds : 0;
          const double ns_per_task =
              row.tasks > 0 ? row.wall_seconds * 1e9 / row.tasks : 0;
          if (shards == 1 && base_virt == 0) base_virt = virt_sps;
          const double speedup = base_virt > 0 ? virt_sps / base_virt : 0;
          std::printf("%-8s %-7s %-9s %-3s %6u %9.2f %8.2fx %9.1f %10.1f "
                      "%8llu\n",
                      spec.label.c_str(), tname, combo.kname, combo.oname,
                      shards, virt_sps, speedup, wall_sps, ns_per_task,
                      static_cast<unsigned long long>(row.stats.forwards));

          if (transport == shard::TransportKind::InProc && shards == 8) {
            const bool rep_on = combo.keyless == shard::KeylessPolicy::Replicate &&
                                combo.overlap;
            const bool own_off = combo.keyless == shard::KeylessPolicy::Owner &&
                                 !combo.overlap;
            if (spec.label == "tourney" && rep_on)
              tourney_replicate_on_s8 = speedup;
            if (spec.label == "rubik" && rep_on) rubik_replicate_on_s8 = speedup;
            if (spec.label == "rubik" && own_off) rubik_owner_off_s8 = speedup;
          }

          obs::JsonObject r;
          r.emplace_back("label",
                         obs::Json(spec.label + "/" + tname + "/s" +
                                   std::to_string(shards) + "/" + combo.kname +
                                   "/" + combo.oname));
          r.emplace_back("workload", obs::Json(spec.label));
          r.emplace_back("transport", obs::Json(tname));
          r.emplace_back("shards", obs::Json(std::uint64_t{shards}));
          r.emplace_back("keyless", obs::Json(combo.kname));
          r.emplace_back("overlap", obs::Json(combo.oname));
          r.emplace_back("sessions", obs::Json(row.sessions));
          r.emplace_back("cycles", obs::Json(row.cycles));
          r.emplace_back("tasks", obs::Json(row.tasks));
          // The gated metric: deterministic, interconnect-priced.
          r.emplace_back("sessions_per_sec", obs::Json(virt_sps));
          // vs the synchronous single-owner 1-shard baseline of this
          // workload/transport pair (common across combos).
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
  }

  // Headline shape checks (the reason this matrix exists): replication +
  // overlap must break the tourney sharding ceiling and must not cost
  // rubik its scaling.
  int rc = 0;
  if (tourney_replicate_on_s8 < 1.3) {
    std::fprintf(stderr,
                 "shard_compare: tourney replicate/on speedup at 8 shards is "
                 "%.3fx, below the 1.3x floor\n",
                 tourney_replicate_on_s8);
    rc = 1;
  }
  if (rubik_replicate_on_s8 < rubik_owner_off_s8) {
    std::fprintf(stderr,
                 "shard_compare: rubik replicate/on speedup %.3fx fell below "
                 "the owner/off baseline %.3fx\n",
                 rubik_replicate_on_s8, rubik_owner_off_s8);
    rc = 1;
  }
  return rc;
}
