// One shared-nothing engine shard (docs/sharding.md).
//
// A ShardState owns the mutable match state of its partition for every
// session: per-session working-memory replicas, token hash tables,
// arenas and a local conflict set (the PR 7 World record, one per
// session), all over the ONE shared compiled image — the Rete network —
// which is referenced, never copied. It speaks psme.shard.v1
// exclusively: handle() decodes a request batch, executes it, and
// returns the reply batch. Nothing else touches a shard's state,
// so the same object runs unchanged behind the in-process transport (its
// own thread) and the socket transport (its own forked process).
//
// Match discipline per batch:
//  - WmDelta: apply to the WM replica (removes are DEFERRED to the next
//    Quiesce so timetags stay resolvable for tokens forwarded mid-cycle),
//    then run the alpha programs and keep only the Root emissions this
//    shard owns (partition.hpp).
//  - TaskFwd: rebuild the token from timetags against the replica and
//    enqueue the join activation.
//  - After all frames: drain the local task queue to quiescence. Join
//    emissions this shard does not own become TaskFwd frames in the
//    reply, addressed per destination shard (the coordinator re-batches
//    them — hub-and-spoke, no shard-to-shard connections).
// Every reply batch ends with a BatchDone frame carrying the modeled
// compute (CostModel instructions) this batch consumed, which is what
// the coordinator's virtual-time makespan accounting consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/options.hpp"
#include "shard/partition.hpp"
#include "shard/protocol.hpp"
#include "sim/cost_model.hpp"
#include "world/world.hpp"

namespace psme::shard {

struct ShardConfig {
  std::uint16_t self = 0;
  std::uint16_t shards = 1;
  std::uint32_t sessions = 1;
  std::uint64_t fingerprint = 0;  // expected program fingerprint
  sim::CostModel cost;            // per-activation compute pricing
  // Keyless-join routing (docs/sharding.md). Owner here so a bare
  // ShardState behaves like PR 9; ShardGroup always sets it explicitly.
  KeylessPolicy keyless = KeylessPolicy::Owner;
};

class ShardState {
 public:
  ShardState(const ops5::Program& program, const rete::Network& net,
             const EngineOptions& options, const ShardConfig& cfg);
  ~ShardState();

  // Decodes one request batch, executes it, returns the reply batch.
  // Throws ProtocolError on malformed input or state violations (a
  // timetag that does not resolve, an unknown join id).
  std::string handle(const std::string& batch);

  // True once a Shutdown frame has been processed; transports use this
  // to end their serve loop after sending the final reply.
  bool done() const { return done_; }

 private:
  // Per-session partition state. The World record carries the WM
  // replica, tables, arenas (one: shards are single-threaded), conflict
  // set and inline queue; `deferred_removes` holds wmes whose Root(-)
  // already ran but whose storage must survive until quiescence.
  struct Slice {
    world::World w;
    std::vector<const Wme*> deferred_removes;
  };

  Slice& slice(std::uint32_t session);
  void apply_delta(const WmDeltaFrame& f);
  void apply_forward(const TaskFwdFrame& f);
  void drain(Slice& s, BatchWriter& reply);
  void route(Slice& s, const match::Task& src, std::vector<match::Task>& out,
             BatchWriter& reply);
  // `emitted`: the tasks `t` emitted (a root's are priced per emission).
  void price(const match::Task& t, const match::ActivationCost& c,
             std::size_t emitted);

  const ops5::Program& program_;
  const rete::Network& net_;
  EngineOptions options_;
  ShardConfig cfg_;
  PartitionPlan plan_;  // which keyless joins replicate here
  std::unordered_map<std::uint32_t, const rete::JoinNode*> join_by_id_;
  std::vector<std::unique_ptr<Slice>> slices_;  // lazily built
  std::vector<Slice*> touched_;  // slices with queued work this batch

  // Exchange credit handshake: FlushMark epochs must be strictly
  // increasing over the connection's lifetime.
  std::uint32_t last_epoch_ = 0;

  // Lifetime counters (StatsReply) and per-batch deltas (BatchDone).
  std::uint64_t tasks_ = 0, forwarded_ = 0, dropped_ = 0;
  std::uint64_t replicated_keeps_ = 0;
  sim::VTime vtime_ = 0;
  std::uint64_t batch_tasks_ = 0;
  sim::VTime batch_vtime_ = 0;
  bool done_ = false;
};

}  // namespace psme::shard
