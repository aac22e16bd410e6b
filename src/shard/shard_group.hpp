// ShardGroup: the coordinator of a sharded match (docs/sharding.md).
//
// Partitioned counterpart of world::BatchEngine: N shared-nothing
// ShardStates each own one partition of every session's match state; the
// coordinator owns the authoritative working memory, the firing trace and
// conflict resolution, and speaks psme.shard.v1 to the shards over a
// Transport (in-process threads or forked processes — same bytes either
// way).
//
// One recognize-act round:
//  1. flush: each session's pending WM deltas become WmDelta frames,
//     broadcast to every shard (each runs the alpha net and keeps only
//     the Root emissions it owns).
//  2. exchange: reply batches carry TaskFwd frames for join activations
//     owned elsewhere; the coordinator relays them hub-and-spoke,
//     re-batched per destination shard, until no shard emits more.
//  3. quiesce: a barrier frame makes shards apply deferred wme removes
//     and collect; the coordinator collects its own WM and (optionally)
//     captures per-cycle rr digests — WM from its authoritative copy, CS
//     as the order-independent merge of every shard's sorted entry
//     hashes, so a sharded run and a single-engine run produce
//     bit-identical digest rows.
//  4. select+fire: PeekQuery asks each shard for its local dominant
//     instantiation; the coordinator merges the proposals under the SAME
//     ConflictSet::dominates total order, sends Fire to the winner's
//     shard (refraction), and runs the RHS locally — new deltas feed
//     step 1 of the next round.
//
// Interconnect pricing: every priced request/reply batch is charged
// CostModel::batch_cost(bytes) and every reply reports its modeled
// compute (BatchDone); a sweep's virtual makespan is the MAX over
// contacted shards of CostModel::path_cost(compute, comm, true) =
// max(compute, comm), because the shard keeps draining while frames are
// in flight. That makespan is what bench/shard_compare reports as virtual
// time; the request + compute + reply counterfactual is kept only as
// overlap_saved_vtime. Digest/checkpoint/stats traffic is diagnostic and
// deliberately unpriced.
//
// The exchange: every request batch — control traffic included — ends
// with a FlushMark carrying (exchange cycle, per-shard epoch); the shard
// drains and echoes a FlushAck, returning the coordinator's send credit
// for that shard. The coordinator relays TaskFwd frames the moment the
// carrying reply arrives — an eager send toward any shard whose credit is
// free — instead of holding them for an end-of-round barrier, and the
// quiesce barrier itself rides the same exchange once traffic drains.
// Replies are consumed in shard order and frames applied in one total
// order, so per-cycle rr digests match a single engine's bit for bit
// (the equivalence suite runs both keyless policies on both transports).
//
// Thread safety: one coarse mutex serializes the public surface (the
// transport is strict request/reply per shard; the credit window is one
// batch in flight per shard, preserving that invariant). The
// serve front tier therefore runs one ShardGroup per worker lane rather
// than sharing one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "engine/control.hpp"
#include "engine/options.hpp"
#include "shard/shard.hpp"
#include "shard/transport.hpp"
#include "sim/cost_model.hpp"
#include "world/world.hpp"

namespace psme::obs {
class Registry;
}

namespace psme::shard {

struct ShardGroupConfig {
  std::uint16_t shards = 1;
  std::uint32_t sessions = 1;
  TransportKind transport = TransportKind::InProc;
  sim::CostModel cost;
  // Keyless-join routing (docs/sharding.md): each policy wins some
  // measured rows, so both stay.
  KeylessPolicy keyless = KeylessPolicy::Replicate;
};

// Interconnect + partition accounting, aggregated over the group's life.
struct GroupStats {
  std::uint64_t batches = 0;         // request + reply batches moved
  std::uint64_t frames = 0;          // frames inside those batches
  std::uint64_t bytes_sent = 0;      // coordinator -> shard
  std::uint64_t bytes_received = 0;  // shard -> coordinator
  std::uint64_t forwards = 0;        // TaskFwd frames relayed (hub)
  std::uint64_t deltas = 0;          // WmDelta frames broadcast
  std::uint64_t rounds = 0;          // exchange rounds priced
  std::uint64_t tasks = 0;           // match tasks executed, all shards
  std::uint64_t dropped = 0;         // root emissions owned elsewhere
  sim::VTime compute_vtime = 0;      // sum of shard batch compute
  sim::VTime comm_vtime = 0;         // sum of batch_cost both directions
  sim::VTime makespan_vtime = 0;     // sum over rounds of the slowest path
  sim::VTime overlap_saved_vtime = 0;  // barrier counterfactual - overlapped
  std::uint64_t replicated_nodes = 0;  // keyless joins running replicated
  std::uint64_t replicated_keeps = 0;  // tasks kept local by replication
};

class ShardGroup final : public SessionBackend {
 public:
  // Builds the compiled image once, then cfg.shards ShardStates over it
  // and the chosen transport (SocketTransport forks HERE — construct the
  // group before starting unrelated threads). Performs the Hello
  // fingerprint/topology handshake with every shard.
  ShardGroup(const ops5::Program& program, EngineOptions options,
             ShardGroupConfig cfg);
  ~ShardGroup() override;

  std::uint16_t num_shards() const { return cfg_.shards; }
  std::uint32_t num_sessions() const { return cfg_.sessions; }
  TransportKind transport_kind() const { return cfg_.transport; }
  const ops5::Program& program() const { return image_.program; }
  const rete::Network& network() const { return *image_.network; }
  const EngineOptions& options() const { return options_; }

  // Session slots (engine/control.hpp): working-memory edits and
  // checkpoints between runs, addressed by session. Each call takes the
  // group's mutex.
  const Wme* make(std::uint32_t session, std::string_view wme_literal) override;
  const Wme* make(
      std::uint32_t session, SymbolId cls,
      const std::vector<std::pair<SymbolId, Value>>& fields) override;
  void remove(std::uint32_t session, TimeTag tag) override;
  // Live reference (serve's stats/run commands poll it between slices).
  const Control& control(std::uint32_t session) const override;
  void set_max_cycles(std::uint32_t session, std::uint64_t n) override;
  // Runs one session to its stop.
  RunResult run_session(std::uint32_t session) override;
  // The fired list is gathered from the owning shards (FiredQuery);
  // restore replays wmes through the coordinator WM and re-applies
  // refraction on the shards at the next run's first quiescence.
  EngineSnapshot snapshot_session(std::uint32_t session) override;
  void reset_session(std::uint32_t session) override;
  void restore_session(std::uint32_t session,
                       const EngineSnapshot& snap) override;
  const std::vector<FiringRecord>& trace(std::uint32_t session) const {
    return control(session).trace;
  }

  // Runs every session to halt / empty conflict set / its cycle cap, one
  // batched select+fire round across all live sessions per cycle.
  void run_all();

  // Per-cycle digest capture (world::World::DigestRow, same semantics as
  // BatchEngine::set_digest_capture). With `per_shard_detail`, also keeps
  // each shard's sorted conflict-set hashes per captured cycle so an
  // equivalence failure can name the divergent (shard, cycle).
  void set_digest_capture(bool on, bool per_shard_detail = false) {
    digest_capture_ = on;
    cs_detail_ = on && per_shard_detail;
  }
  const std::vector<world::World::DigestRow>& digests(
      std::uint32_t session) const;
  struct CsDetailRow {
    std::uint64_t cycle = 0;
    std::vector<std::vector<std::uint64_t>> per_shard;  // sorted hashes
  };
  const std::vector<CsDetailRow>& cs_detail(std::uint32_t session) const;

  // Syncs lifetime counters from the shards (StatsQuery) and returns the
  // merged interconnect + partition accounting.
  GroupStats group_stats();
  // psme.shard.* metrics (docs/observability.md).
  void export_obs(obs::Registry& registry);

 private:
  // Coordinator-side session state: a Control (engine/control.hpp) whose
  // WM is the authoritative one (timetags are assigned here and
  // broadcast) and whose `pending` changes become the next flush's
  // deltas. Its refraction set lives on the shards, not in a local
  // conflict set.
  struct Session : Control {
    std::uint32_t id = 0;
    bool live = false;
    std::vector<world::World::DigestRow> digests;
    std::vector<CsDetailRow> cs_detail;
  };

  Session& session(std::uint32_t id);
  const Session& session(std::uint32_t id) const;

  // Pending outgoing batch per shard; created on first frame.
  BatchWriter& to(std::uint16_t s);
  // Sends every pending batch, each ending with a FlushMark, one batch in
  // flight per shard; relays TaskFwd frames eagerly as each reply arrives
  // and repeats until nothing is in flight. Non-relay reply frames go to
  // `on_frame`. `priced` charges the interconnect: each sweep costs the
  // max over shards of max(compute, comm). `on_drained` runs when nothing
  // is in flight; returning true (after enqueueing more frames — e.g. the
  // folded quiesce barrier) continues the exchange, false ends it.
  void exchange(bool priced,
                const std::function<void(std::uint16_t, const Frame&)>&
                    on_frame = nullptr,
                const std::function<bool()>& on_drained = nullptr);

  void flush_pending(Session& s);
  // Delta exchange + (restore refraction) + quiesce barrier.
  void match_round(const std::vector<std::uint32_t>& refraction_for);
  void capture_digests(const std::vector<std::uint32_t>& ids);
  // One select+fire round over `candidates`: the Control's stop check,
  // the peek/propose exchange, then Control::fire for each winner.
  // Returns the sessions that fired.
  std::vector<std::uint32_t> fire_phase(
      const std::vector<std::uint32_t>& candidates);
  void run_session_locked(std::uint32_t id);
  GroupStats group_stats_locked();

  const ProgramImage image_;
  EngineOptions options_;
  ShardGroupConfig cfg_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<BatchWriter>> out_;
  // Comparator only (never populated): the same dominates() total order
  // every other engine uses decides between shard proposals.
  ConflictSet cr_;
  GroupStats stats_;
  // Exchange handshake state: one exchange cycle id per exchange call,
  // one strictly-increasing epoch per shard.
  std::uint64_t exchange_cycle_ = 0;
  std::vector<std::uint32_t> epoch_;
  bool digest_capture_ = false;
  bool cs_detail_ = false;
  mutable std::mutex mu_;
};

}  // namespace psme::shard
