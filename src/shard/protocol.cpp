#include "shard/protocol.hpp"

#include <bit>
#include <cstring>

namespace psme::shard {

namespace {

// Bounds-checked little-endian reader over one batch's bytes.
class Reader {
 public:
  Reader(const char* p, std::size_t n) : p_(p), end_(p + n) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p_++);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed<4>()); }
  std::uint64_t u64() { return fixed<8>(); }

  // Validates a count field against the minimum wire size of one element
  // BEFORE any container is sized from it: a corrupt length can claim at
  // most `remaining` elements, never an allocation bomb.
  std::size_t count(std::uint64_t claimed, std::size_t min_elem_bytes) {
    if (claimed > remaining() / min_elem_bytes)
      throw ProtocolError("count field exceeds remaining payload");
    return static_cast<std::size_t>(claimed);
  }

  Value value() {
    const std::uint8_t kind = u8();
    const std::uint64_t bits = u64();
    switch (kind) {
      case static_cast<std::uint8_t>(ValueKind::Nil):
        return Value::nil();
      case static_cast<std::uint8_t>(ValueKind::Symbol):
        return Value::symbol(static_cast<SymbolId>(bits));
      case static_cast<std::uint8_t>(ValueKind::Int):
        return Value::integer(static_cast<std::int64_t>(bits));
      case static_cast<std::uint8_t>(ValueKind::Float):
        return Value::real(std::bit_cast<double>(bits));
      default:
        throw ProtocolError("unknown value kind");
    }
  }

 private:
  void need(std::size_t n) {
    if (remaining() < n) throw ProtocolError("truncated frame");
  }
  template <std::size_t N>
  std::uint64_t fixed() {
    need(N);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p_[i]))
           << (8 * i);
    p_ += N;
    return v;
  }

  const char* p_;
  const char* end_;
};

std::uint64_t value_bits(const Value& v) {
  switch (v.kind()) {
    case ValueKind::Nil: return 0;
    case ValueKind::Symbol: return v.as_symbol();
    case ValueKind::Int: return static_cast<std::uint64_t>(v.as_int());
    case ValueKind::Float: return std::bit_cast<std::uint64_t>(v.as_float());
  }
  return 0;
}

}  // namespace

BatchWriter::BatchWriter(std::uint16_t src, std::uint16_t dst) {
  u32(kMagic);
  u8(kVersion);
  u16(src);
  u16(dst);
  u32(0);  // frame count, patched by take()
}

void BatchWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}
void BatchWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}
void BatchWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void BatchWriter::begin(FrameType t) {
  u8(static_cast<std::uint8_t>(t));
  ++frames_;
}

void BatchWriter::hello(const HelloFrame& f) {
  begin(FrameType::Hello);
  u64(f.fingerprint);
  u16(f.shards);
  u16(f.self);
  u32(f.sessions);
}

void BatchWriter::wm_delta(const WmDeltaFrame& f) {
  begin(FrameType::WmDelta);
  u32(f.session);
  u8(static_cast<std::uint8_t>(f.sign));
  u64(f.tag);
  u32(f.cls);
  u16(static_cast<std::uint16_t>(f.fields.size()));
  for (const Value& v : f.fields) {
    u8(static_cast<std::uint8_t>(v.kind()));
    u64(value_bits(v));
  }
}

void BatchWriter::task_fwd(const TaskFwdFrame& f) {
  begin(FrameType::TaskFwd);
  u32(f.session);
  u32(f.join_id);
  u16(f.dst);
  u8(static_cast<std::uint8_t>(f.sign));
  u8(static_cast<std::uint8_t>(f.tags.size()));
  for (const std::uint64_t t : f.tags) u64(t);
}

void BatchWriter::quiesce() { begin(FrameType::Quiesce); }

void BatchWriter::peek_query(std::uint32_t session) {
  begin(FrameType::PeekQuery);
  u32(session);
}

void BatchWriter::inst_body(const InstFrame& f) {
  u32(f.session);
  u8(f.present ? 1 : 0);
  if (!f.present) return;
  u32(f.prod_index);
  u8(static_cast<std::uint8_t>(f.tags.size()));
  for (const std::uint64_t t : f.tags) u64(t);
}

void BatchWriter::propose(const InstFrame& f) {
  begin(FrameType::Propose);
  inst_body(f);
}
void BatchWriter::fire(const InstFrame& f) {
  begin(FrameType::Fire);
  inst_body(f);
}
void BatchWriter::mark_fired(const InstFrame& f) {
  begin(FrameType::MarkFired);
  inst_body(f);
}

void BatchWriter::cs_query(std::uint32_t session) {
  begin(FrameType::CsQuery);
  u32(session);
}

void BatchWriter::cs_hashes(const CsHashesFrame& f) {
  begin(FrameType::CsHashes);
  u32(f.session);
  u32(static_cast<std::uint32_t>(f.hashes.size()));
  for (const std::uint64_t h : f.hashes) u64(h);
}

void BatchWriter::fired_query(std::uint32_t session) {
  begin(FrameType::FiredQuery);
  u32(session);
}

void BatchWriter::fired_reply(const FiredReplyFrame& f) {
  begin(FrameType::FiredReply);
  u32(f.session);
  u32(static_cast<std::uint32_t>(f.fired.size()));
  for (const InstFrame& inst : f.fired) inst_body(inst);
}

void BatchWriter::reset_session(std::uint32_t session) {
  begin(FrameType::ResetSession);
  u32(session);
}

void BatchWriter::stats_query() { begin(FrameType::StatsQuery); }

void BatchWriter::stats_reply(const StatsReplyFrame& f) {
  begin(FrameType::StatsReply);
  u64(f.tasks);
  u64(f.forwarded);
  u64(f.dropped);
  u64(f.vtime);
  u64(f.replicated_keeps);
}

void BatchWriter::batch_done(const BatchDoneFrame& f) {
  begin(FrameType::BatchDone);
  u64(f.vtime_delta);
  u32(f.tasks_delta);
}

void BatchWriter::shutdown() { begin(FrameType::Shutdown); }

void BatchWriter::flush_mark(const FlushFrame& f) {
  begin(FrameType::FlushMark);
  u64(f.cycle);
  u32(f.epoch);
}

void BatchWriter::flush_ack(const FlushFrame& f) {
  begin(FrameType::FlushAck);
  u64(f.cycle);
  u32(f.epoch);
}

std::string BatchWriter::take() {
  const std::uint32_t n = static_cast<std::uint32_t>(frames_);
  // Frame count lives at offset 9 (magic + version + src + dst).
  for (std::size_t i = 0; i < 4; ++i)
    buf_[9 + i] = static_cast<char>((n >> (8 * i)) & 0xff);
  return std::move(buf_);
}

namespace {

InstFrame read_inst(Reader& r) {
  InstFrame f;
  f.session = r.u32();
  f.present = r.u8() != 0;
  if (!f.present) return f;
  f.prod_index = r.u32();
  const std::size_t n = r.count(r.u8(), 8);
  f.tags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) f.tags.push_back(r.u64());
  return f;
}

}  // namespace

Batch decode_batch(const std::string& bytes) {
  Reader r(bytes.data(), bytes.size());
  if (r.u32() != kMagic) throw ProtocolError("bad magic");
  if (r.u8() != kVersion) throw ProtocolError("unsupported version");
  Batch b;
  b.src = r.u16();
  b.dst = r.u16();
  const std::size_t nframes = r.count(r.u32(), 1);
  b.frames.reserve(nframes);
  for (std::size_t i = 0; i < nframes; ++i) {
    Frame f;
    f.type = static_cast<FrameType>(r.u8());
    switch (f.type) {
      case FrameType::Hello:
        f.hello.fingerprint = r.u64();
        f.hello.shards = r.u16();
        f.hello.self = r.u16();
        f.hello.sessions = r.u32();
        break;
      case FrameType::WmDelta: {
        f.delta.session = r.u32();
        f.delta.sign = static_cast<std::int8_t>(r.u8());
        if (f.delta.sign != +1 && f.delta.sign != -1)
          throw ProtocolError("bad delta sign");
        f.delta.tag = r.u64();
        f.delta.cls = r.u32();
        const std::size_t n = r.count(r.u16(), 9);
        f.delta.fields.reserve(n);
        for (std::size_t k = 0; k < n; ++k)
          f.delta.fields.push_back(r.value());
        break;
      }
      case FrameType::TaskFwd: {
        f.fwd.session = r.u32();
        f.fwd.join_id = r.u32();
        f.fwd.dst = r.u16();
        f.fwd.sign = static_cast<std::int8_t>(r.u8());
        if (f.fwd.sign != +1 && f.fwd.sign != -1)
          throw ProtocolError("bad forward sign");
        const std::size_t n = r.count(r.u8(), 8);
        if (n == 0) throw ProtocolError("empty forwarded token");
        f.fwd.tags.reserve(n);
        for (std::size_t k = 0; k < n; ++k) f.fwd.tags.push_back(r.u64());
        break;
      }
      case FrameType::Quiesce:
      case FrameType::StatsQuery:
      case FrameType::Shutdown:
        break;
      case FrameType::PeekQuery:
      case FrameType::CsQuery:
      case FrameType::FiredQuery:
      case FrameType::ResetSession:
        f.session.session = r.u32();
        break;
      case FrameType::Propose:
      case FrameType::Fire:
      case FrameType::MarkFired:
        f.inst = read_inst(r);
        break;
      case FrameType::CsHashes: {
        f.cs.session = r.u32();
        const std::size_t n = r.count(r.u32(), 8);
        f.cs.hashes.reserve(n);
        for (std::size_t k = 0; k < n; ++k) f.cs.hashes.push_back(r.u64());
        break;
      }
      case FrameType::FiredReply: {
        f.fired.session = r.u32();
        const std::size_t n = r.count(r.u32(), 6);
        f.fired.fired.reserve(n);
        for (std::size_t k = 0; k < n; ++k)
          f.fired.fired.push_back(read_inst(r));
        break;
      }
      case FrameType::StatsReply:
        f.stats.tasks = r.u64();
        f.stats.forwarded = r.u64();
        f.stats.dropped = r.u64();
        f.stats.vtime = r.u64();
        f.stats.replicated_keeps = r.u64();
        break;
      case FrameType::BatchDone:
        f.done.vtime_delta = r.u64();
        f.done.tasks_delta = r.u32();
        break;
      case FrameType::FlushMark:
      case FrameType::FlushAck:
        f.flush.cycle = r.u64();
        f.flush.epoch = r.u32();
        break;
      default:
        throw ProtocolError("unknown frame type");
    }
    b.frames.push_back(std::move(f));
  }
  if (r.remaining() != 0) throw ProtocolError("trailing bytes after batch");
  return b;
}

}  // namespace psme::shard
