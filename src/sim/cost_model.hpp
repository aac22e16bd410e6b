// Instruction-cost model for the simulated Encore Multimax.
//
// Virtual time is denominated in NS32032 instructions; the paper's machine
// executes ~0.75 million instructions per second per processor. The
// constants are calibrated against the paper's published grain sizes:
// a constant-test node activation costs ~3 instructions (Section 3.1) and
// whole tasks average 100-700 instructions (Section 5; 175-1300 us per
// task at VAX/NS32032 speeds, Section 4.1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "match/kernel.hpp"

namespace psme::sim {

using VTime = std::uint64_t;  // virtual time, in instructions

struct CostModel {
  double mips = 0.75;  // instructions per microsecond

  // Spin locks: a waiting process re-probes the (cached) lock word every
  // `probe_interval`; a successful acquisition costs `lock_acquire`.
  VTime probe_interval = 5;
  VTime lock_acquire = 3;

  // Task queues (critical-section lengths; Section 3.2).
  VTime queue_pop = 8;
  VTime queue_push = 7;
  VTime task_dispatch = 14;  // fetch token, decode destination

  // Work-stealing deques (match/scheduler.hpp; not in the paper — the
  // modern alternative to its proposed hardware scheduler). The owner's
  // paths carry no lock acquisition; a batch publication pays one
  // release-store charge plus a per-task slot write.
  VTime deque_pop = 7;        // owner take: fence + bounds check + read
  VTime deque_publish = 6;    // owner batch publication (release store)
  VTime deque_task_copy = 3;  // per-task slot write within a batch
  VTime steal_probe = 4;      // thief reads a victim's top/bottom
  VTime steal_cas = 12;       // interlocked advance of the victim's top
  VTime overflow_op = 9;      // locked overflow-list push/pop (rare)

  // Constant-test / alpha level ("3 machine instructions" per test).
  VTime root_base = 24;        // build token, locate class bucket
  VTime alpha_test = 3;        // the paper's number
  VTime alpha_emit = 18;       // token copy + destination setup per output

  // Coalesced memory/join nodes. The hash charge follows the compiled
  // key layout (per-node seed + one mix per key slot); the old flat
  // hash_compute=14 corresponds to a typical two-slot key (6 + 2*4).
  VTime hash_base = 6;                 // seed load + finalize
  VTime hash_per_slot = 4;             // one slot read + mix round
  VTime mem_insert = 22;
  VTime mem_delete_base = 16;
  VTime mem_delete_per_examined = 3;   // same-memory search for deletes
  VTime join_probe_base = 12;
  VTime join_per_examined = 3;         // opposite-memory token comparison
                                       // (same order as a constant test)
  // Pair token build: fixed header setup plus the flat-token wme-array
  // copy. The old flat join_per_emission=22 corresponds to a 3-wme token
  // (16 + 3*2).
  VTime join_per_emission = 16;
  VTime emit_per_wme = 2;              // one pointer copy per token wme
  VTime mrsw_enter = 18;               // flag+counter manipulation (lock 1)
  VTime mrsw_modification = 8;         // lock 2 handshake

  // Terminal nodes / conflict set.
  VTime terminal_update = 90;

  // Hardware task scheduler (Gupta's proposal, paper Section 3.2: "So far
  // we have not implemented the hardware scheduler"): a task push/pop is a
  // single bus transaction with no software lock.
  VTime hts_op = 4;

  // Interconnect between shared-nothing engine shards (src/shard/,
  // docs/sharding.md; not in the paper — the scale-out step past one
  // Multimax). One aggregated batch per destination per phase pays the
  // fixed cost once, PELCR-style: msg_fixed models the syscall + framing
  // + remote wakeup of a small-message send on paper-era interconnects
  // (~1 ms at 0.75 MIPS), msg_per_byte the serialize/copy/deserialize of
  // the payload. Batching N frames to one destination costs
  // msg_fixed + msg_per_byte * bytes, not N * msg_fixed — that gap is
  // the aggregation amortization the shard_compare bench sweeps.
  VTime msg_fixed = 800;
  VTime msg_per_byte = 2;
  VTime batch_cost(std::size_t bytes) const {
    return msg_fixed + msg_per_byte * static_cast<VTime>(bytes);
  }
  // One shard's path through one exchange round. A synchronous round
  // pays request + compute + reply back-to-back; an overlapped exchange
  // keeps the shard draining while its frames are in flight, so the
  // round costs the longer of the two legs (the shorter hides under it).
  VTime path_cost(VTime compute, VTime comm, bool overlapped) const {
    return overlapped ? (compute > comm ? compute : comm) : compute + comm;
  }

  // Control process.
  VTime rhs_per_change = 260;    // threaded-code evaluation per WM action
  VTime cr_base = 180;           // conflict-resolution fixed cost
  VTime cr_per_instantiation = 18;
  VTime wake_latency = 12;       // sleeping process notices new work

  double to_seconds(VTime t) const {
    return static_cast<double>(t) / (mips * 1e6);
  }

  // --- per-activation charges, shared by SimEngine, the parallelism
  // profiler and the shard tier so all three price a task identically,
  // from the activation's ActivationCost: alpha_test per test evaluated,
  // join_per_examined per opposite-memory candidate, alpha_emit per task
  // a root emitted. -----------------------------------------------------
  VTime root_charge(const match::ActivationCost& ac) const {
    return root_base + alpha_test * ac.alpha_tests + alpha_emit * ac.emissions;
  }
  VTime join_update_charge(const match::ActivationCost& ac, int sign) const {
    return hash_base + hash_per_slot * ac.key_slots +
           (sign > 0 ? mem_insert
                     : mem_delete_base +
                           mem_delete_per_examined * ac.same_examined);
  }
  VTime join_probe_charge(const match::ActivationCost& ac) const {
    return join_probe_base + join_per_examined * ac.opp_examined +
           join_per_emission * ac.emissions + emit_per_wme * ac.emitted_wmes;
  }
  // A whole task run in one go (the profiler and the shard tier): its
  // dispatch plus its kind's charges.
  VTime task_charge(const match::Task& t,
                    const match::ActivationCost& ac) const {
    if (t.kind == match::TaskKind::Root) return task_dispatch + root_charge(ac);
    if (t.kind == match::TaskKind::Terminal)
      return task_dispatch + terminal_update;
    return task_dispatch + join_update_charge(ac, t.sign) +
           join_probe_charge(ac);
  }
};

}  // namespace psme::sim
