// psme.shard.v1: the binary coordinator <-> shard message protocol.
//
// Everything crossing a shard boundary is a *frame*; frames to one
// destination are aggregated into a *batch* (PELCR-style: one batch per
// destination per phase, so the per-message fixed cost amortizes over
// every frame the phase produced). A batch is:
//
//   [u32 magic 'PSB1'] [u8 version] [u16 src] [u16 dst] [u32 nframes]
//   nframes x ( [u8 type] [type-specific payload] )
//
// all little-endian, no alignment. Shard ids are dense u16; the
// coordinator is 0xffff (partition.hpp). The same bytes travel over both
// transports — in-process queues and socketpair pipes — so a frame
// round-trips bit-identically whether or not a process boundary is
// crossed (the protocol fuzz tests rely on this).
//
// Versioning: the current version is 2 and the decoder accepts exactly
// kVersion. Shard batches never outlive the coordinator/shard pair of one
// build that writes them, so any other version byte is refused like any
// other bad header.
//
// Decoding is defensive: every read is bounds-checked against the
// remaining payload and every count field is validated before
// reservation, so truncated or corrupt batches raise ProtocolError —
// never a crash or an allocation bomb (tests/shard_protocol_test.cpp
// fuzzes exactly this surface).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/value.hpp"

namespace psme::shard {

inline constexpr std::uint32_t kMagic = 0x31425350u;  // "PSB1", LE
inline constexpr std::uint8_t kVersion = 2;

class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("psme.shard.v1: " + what) {}
};

enum class FrameType : std::uint8_t {
  Hello = 1,      // fingerprint + topology check, once per connection
  WmDelta = 2,    // one wme made/removed; broadcast to every shard
  TaskFwd = 3,    // a JoinLeft activation owned by another shard
  Quiesce = 4,    // barrier: apply deferred removes, collect retired wmes
  PeekQuery = 5,  // ask for the shard's local dominant instantiation
  Propose = 6,    // reply: local dominant (or absent)
  Fire = 7,       // winner: mark the instantiation fired (refraction)
  CsQuery = 8,    // ask for the sorted local conflict-set entry hashes
  CsHashes = 9,   // reply to CsQuery
  FiredQuery = 10,   // checkpoint: ask for live-but-fired instantiations
  FiredReply = 11,   // reply to FiredQuery
  ResetSession = 12,  // drop one session's state, poison its arenas
  MarkFired = 13,     // checkpoint restore: re-apply refraction
  StatsQuery = 14,    // ask for lifetime shard counters
  StatsReply = 15,    // reply to StatsQuery
  BatchDone = 16,     // trails every reply batch: per-batch cost facts
  Shutdown = 17,      // shard acknowledges, then exits its serve loop
  // The exchange's credit handshake (shard_group.hpp).
  FlushMark = 18,  // coordinator: "drain everything before this mark"
  FlushAck = 19,   // shard echo: the mark's (cycle, epoch), credit return
};

struct HelloFrame {
  std::uint64_t fingerprint = 0;  // serve::Checkpoint::fingerprint_of
  std::uint16_t shards = 0;
  std::uint16_t self = 0;
  std::uint32_t sessions = 0;
};

struct WmDeltaFrame {
  std::uint32_t session = 0;
  std::int8_t sign = +1;
  std::uint64_t tag = 0;           // timetag (stable across shards)
  std::uint32_t cls = 0;           // SymbolId; unused when sign < 0
  std::vector<Value> fields;       // empty when sign < 0
};

struct TaskFwdFrame {
  std::uint32_t session = 0;
  std::uint32_t join_id = 0;
  std::uint16_t dst = 0;  // owner shard (the coordinator relays, hub-style)
  std::int8_t sign = +1;
  std::vector<std::uint64_t> tags;  // token wme timetags, CE order
};

// Propose / Fire / MarkFired / one FiredReply entry share this shape.
struct InstFrame {
  std::uint32_t session = 0;
  bool present = true;  // Propose only: false = no local candidate
  std::uint32_t prod_index = 0;
  std::vector<std::uint64_t> tags;  // positive-CE timetags, CE order
};

struct SessionFrame {  // PeekQuery, CsQuery, FiredQuery, ResetSession
  std::uint32_t session = 0;
};

struct CsHashesFrame {
  std::uint32_t session = 0;
  std::vector<std::uint64_t> hashes;  // sorted (rr::cs_entry_hashes)
};

struct FiredReplyFrame {
  std::uint32_t session = 0;
  std::vector<InstFrame> fired;
};

struct StatsReplyFrame {
  std::uint64_t tasks = 0;       // match tasks executed since birth
  std::uint64_t forwarded = 0;   // tasks routed to another shard
  std::uint64_t dropped = 0;     // root emissions owned elsewhere
  std::uint64_t vtime = 0;       // modeled compute, CostModel instructions
  std::uint64_t replicated_keeps = 0;  // tasks kept local by replication
};

struct BatchDoneFrame {
  std::uint64_t vtime_delta = 0;  // modeled compute for THIS batch
  std::uint32_t tasks_delta = 0;  // tasks executed for THIS batch
};

// FlushMark / FlushAck. The coordinator stamps every request batch with
// (exchange cycle, per-shard epoch); the shard drains the batch and
// echoes the mark back, returning the send credit. Epochs are strictly
// increasing per shard connection — both sides validate.
struct FlushFrame {
  std::uint64_t cycle = 0;  // which exchange this belongs to
  std::uint32_t epoch = 0;  // per-shard send sequence within the run
};

// A decoded frame: `type` says which member is meaningful.
struct Frame {
  FrameType type = FrameType::Hello;
  HelloFrame hello;
  WmDeltaFrame delta;
  TaskFwdFrame fwd;
  InstFrame inst;          // Propose / Fire / MarkFired
  SessionFrame session;    // PeekQuery / CsQuery / FiredQuery / ResetSession
  CsHashesFrame cs;
  FiredReplyFrame fired;
  StatsReplyFrame stats;   // StatsReply
  BatchDoneFrame done;
  FlushFrame flush;        // FlushMark / FlushAck
};

struct Batch {
  std::uint16_t src = 0xffff;  // partition.hpp kCoordinator
  std::uint16_t dst = 0;
  std::vector<Frame> frames;
};

// Incremental batch builder: append frames, then take() the wire bytes.
class BatchWriter {
 public:
  BatchWriter(std::uint16_t src, std::uint16_t dst);

  void hello(const HelloFrame& f);
  void wm_delta(const WmDeltaFrame& f);
  void task_fwd(const TaskFwdFrame& f);
  void quiesce();
  void peek_query(std::uint32_t session);
  void propose(const InstFrame& f);
  void fire(const InstFrame& f);
  void cs_query(std::uint32_t session);
  void cs_hashes(const CsHashesFrame& f);
  void fired_query(std::uint32_t session);
  void fired_reply(const FiredReplyFrame& f);
  void reset_session(std::uint32_t session);
  void mark_fired(const InstFrame& f);
  void stats_query();
  void stats_reply(const StatsReplyFrame& f);
  void batch_done(const BatchDoneFrame& f);
  void shutdown();
  void flush_mark(const FlushFrame& f);
  void flush_ack(const FlushFrame& f);

  std::size_t frames() const { return frames_; }
  bool empty() const { return frames_ == 0; }
  // Patches the frame count into the header and returns the bytes.
  std::string take();

 private:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void begin(FrameType t);
  void inst_body(const InstFrame& f);

  std::string buf_;
  std::size_t frames_ = 0;
};

// Decodes a full batch. Throws ProtocolError on any malformed input.
Batch decode_batch(const std::string& bytes);

}  // namespace psme::shard
