// psme.shard.v1 wire-format tests: every frame type round-trips
// bit-exactly, and malformed bytes — truncations, single-byte
// corruptions, allocation-bomb counts, wrong magic/version — are
// rejected with ProtocolError, never a crash or an oversized
// reservation.
#include <gtest/gtest.h>

#include "shard/partition.hpp"
#include "shard/protocol.hpp"

namespace psme::shard {
namespace {

// One batch exercising every frame type and every Value kind.
std::string full_batch() {
  BatchWriter w(kCoordinator, 3);
  HelloFrame hello;
  hello.fingerprint = 0x1234'5678'9abc'def0ull;
  hello.shards = 4;
  hello.self = 3;
  hello.sessions = 64;
  w.hello(hello);

  WmDeltaFrame mk;
  mk.session = 7;
  mk.sign = +1;
  mk.tag = 0x1'0000'0001ull;  // exceeds 32 bits on purpose
  mk.cls = 42;
  mk.fields = {Value::nil(), Value::symbol(9), Value::integer(-5),
               Value::real(2.75)};
  w.wm_delta(mk);
  WmDeltaFrame rm;
  rm.session = 7;
  rm.sign = -1;
  rm.tag = 11;
  w.wm_delta(rm);

  TaskFwdFrame fwd;
  fwd.session = 7;
  fwd.join_id = 19;
  fwd.dst = 2;
  fwd.sign = -1;
  fwd.tags = {3, 0xffff'ffff'ffffull, 5};
  w.task_fwd(fwd);

  w.quiesce();
  w.peek_query(7);

  InstFrame present;
  present.session = 7;
  present.present = true;
  present.prod_index = 6;
  present.tags = {8, 2};
  w.propose(present);
  InstFrame absent;
  absent.session = 9;
  absent.present = false;
  w.propose(absent);
  w.fire(present);
  w.mark_fired(present);

  w.cs_query(7);
  CsHashesFrame cs;
  cs.session = 7;
  cs.hashes = {1, 2, 3};
  w.cs_hashes(cs);

  w.fired_query(7);
  FiredReplyFrame fr;
  fr.session = 7;
  fr.fired = {present};
  w.fired_reply(fr);

  w.reset_session(7);
  w.stats_query();
  StatsReplyFrame sr;
  sr.tasks = 100;
  sr.forwarded = 20;
  sr.dropped = 30;
  sr.vtime = 4'000'000'000ull;
  sr.replicated_keeps = 55;
  w.stats_reply(sr);
  w.batch_done({12345, 17});
  w.shutdown();
  w.flush_mark({0xdead'beef'0000'0001ull, 42});
  w.flush_ack({0xdead'beef'0000'0001ull, 42});
  return w.take();
}

TEST(ShardProtocol, EveryFrameTypeRoundTrips) {
  const std::string bytes = full_batch();
  const Batch b = decode_batch(bytes);
  EXPECT_EQ(b.src, kCoordinator);
  EXPECT_EQ(b.dst, 3);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), kVersion);
  ASSERT_EQ(b.frames.size(), 21u);

  EXPECT_EQ(b.frames[0].type, FrameType::Hello);
  EXPECT_EQ(b.frames[0].hello.fingerprint, 0x1234'5678'9abc'def0ull);
  EXPECT_EQ(b.frames[0].hello.shards, 4);
  EXPECT_EQ(b.frames[0].hello.self, 3);
  EXPECT_EQ(b.frames[0].hello.sessions, 64u);

  const WmDeltaFrame& mk = b.frames[1].delta;
  EXPECT_EQ(b.frames[1].type, FrameType::WmDelta);
  EXPECT_EQ(mk.session, 7u);
  EXPECT_EQ(mk.sign, +1);
  EXPECT_EQ(mk.tag, 0x1'0000'0001ull);
  EXPECT_EQ(mk.cls, 42u);
  ASSERT_EQ(mk.fields.size(), 4u);
  EXPECT_EQ(mk.fields[0].kind(), ValueKind::Nil);
  EXPECT_EQ(mk.fields[1].as_symbol(), 9u);
  EXPECT_EQ(mk.fields[2].as_int(), -5);
  EXPECT_EQ(mk.fields[3].as_float(), 2.75);
  EXPECT_EQ(b.frames[2].delta.sign, -1);
  EXPECT_TRUE(b.frames[2].delta.fields.empty());

  const TaskFwdFrame& fwd = b.frames[3].fwd;
  EXPECT_EQ(fwd.join_id, 19u);
  EXPECT_EQ(fwd.dst, 2);
  EXPECT_EQ(fwd.sign, -1);
  EXPECT_EQ(fwd.tags,
            (std::vector<std::uint64_t>{3, 0xffff'ffff'ffffull, 5}));

  EXPECT_EQ(b.frames[4].type, FrameType::Quiesce);
  EXPECT_EQ(b.frames[5].session.session, 7u);
  EXPECT_TRUE(b.frames[6].inst.present);
  EXPECT_EQ(b.frames[6].inst.prod_index, 6u);
  EXPECT_EQ(b.frames[6].inst.tags, (std::vector<std::uint64_t>{8, 2}));
  EXPECT_FALSE(b.frames[7].inst.present);
  EXPECT_EQ(b.frames[7].inst.session, 9u);
  EXPECT_EQ(b.frames[8].type, FrameType::Fire);
  EXPECT_EQ(b.frames[9].type, FrameType::MarkFired);
  EXPECT_EQ(b.frames[11].cs.hashes, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(b.frames[13].fired.fired.size(), 1u);
  EXPECT_EQ(b.frames[13].fired.fired[0].prod_index, 6u);
  EXPECT_EQ(b.frames[14].type, FrameType::ResetSession);
  EXPECT_EQ(b.frames[15].type, FrameType::StatsQuery);
  EXPECT_EQ(b.frames[16].type, FrameType::StatsReply);
  EXPECT_EQ(b.frames[16].stats.vtime, 4'000'000'000ull);
  EXPECT_EQ(b.frames[16].stats.replicated_keeps, 55u);
  EXPECT_EQ(b.frames[17].type, FrameType::BatchDone);
  EXPECT_EQ(b.frames[17].done.vtime_delta, 12345u);
  EXPECT_EQ(b.frames[18].type, FrameType::Shutdown);
  EXPECT_EQ(b.frames[19].type, FrameType::FlushMark);
  EXPECT_EQ(b.frames[19].flush.cycle, 0xdead'beef'0000'0001ull);
  EXPECT_EQ(b.frames[19].flush.epoch, 42u);
  EXPECT_EQ(b.frames[20].type, FrameType::FlushAck);
  EXPECT_EQ(b.frames[20].flush.cycle, 0xdead'beef'0000'0001ull);
  EXPECT_EQ(b.frames[20].flush.epoch, 42u);
}

TEST(ShardProtocol, TrailingFramesDecodeToo) {
  BatchWriter w(0, kCoordinator);
  w.batch_done({77, 3});
  w.shutdown();
  const Batch b = decode_batch(w.take());
  ASSERT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(b.frames[0].done.vtime_delta, 77u);
  EXPECT_EQ(b.frames[0].done.tasks_delta, 3u);
  EXPECT_EQ(b.frames[1].type, FrameType::Shutdown);
}

TEST(ShardProtocol, EveryTruncationIsRejected) {
  const std::string bytes = full_batch();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(decode_batch(bytes.substr(0, n)), ProtocolError)
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(ShardProtocol, SingleByteCorruptionNeverCrashes) {
  const std::string bytes = full_batch();
  // Deterministic sweep (no RNG): every position, a handful of xors.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const unsigned char x : {0x01, 0x80, 0xff}) {
      std::string mut = bytes;
      mut[pos] = static_cast<char>(mut[pos] ^ x);
      try {
        const Batch b = decode_batch(mut);
        // Structurally valid is fine; counts must stay bounded by the
        // payload (the decoder's count() guard).
        EXPECT_LE(b.frames.size(), mut.size());
      } catch (const ProtocolError&) {
        // Rejection is the expected outcome.
      }
    }
  }
}

TEST(ShardProtocol, AllocationBombCountsAreRejected) {
  // A CsHashes frame claiming 2^31 hashes in a tiny payload.
  BatchWriter w(0, kCoordinator);
  CsHashesFrame cs;
  cs.session = 1;
  cs.hashes = {42};
  w.cs_hashes(cs);
  std::string bytes = w.take();
  // Patch the count field (after 13-byte header + 1 type + 4 session).
  const std::size_t count_at = 13 + 1 + 4;
  bytes[count_at + 0] = 0;
  bytes[count_at + 1] = 0;
  bytes[count_at + 2] = 0;
  bytes[count_at + 3] = static_cast<char>(0x80);
  EXPECT_THROW(decode_batch(bytes), ProtocolError);
}

TEST(ShardProtocol, BadMagicVersionAndSignsAreRejected) {
  BatchWriter w(0, kCoordinator);
  w.quiesce();
  const std::string good = w.take();
  {
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(decode_batch(bad), ProtocolError);
  }
  {
    std::string bad = good;
    bad[4] = kVersion + 1;  // future version
    EXPECT_THROW(decode_batch(bad), ProtocolError);
  }
  for (const char old_version : {0, 1}) {
    std::string bad = good;
    bad[4] = old_version;  // only kVersion decodes
    EXPECT_THROW(decode_batch(bad), ProtocolError);
  }
  {
    std::string bad = good;
    bad.push_back('\0');  // trailing garbage after a valid batch
    EXPECT_THROW(decode_batch(bad), ProtocolError);
  }
  {
    // A delta whose sign byte is neither +1 nor -1.
    BatchWriter d(0, kCoordinator);
    WmDeltaFrame f;
    f.session = 0;
    f.sign = +1;
    f.tag = 1;
    f.cls = 1;
    d.wm_delta(f);
    std::string bad = d.take();
    bad[13 + 1 + 4] = 3;  // header + type + session -> sign
    EXPECT_THROW(decode_batch(bad), ProtocolError);
  }
}

TEST(ShardPartition, JumpHashIsStableAndMinimallyMoving) {
  // Stability: pure function of (key, buckets).
  for (std::uint64_t k = 0; k < 64; ++k)
    EXPECT_EQ(jump_hash(k * 0x9e3779b97f4a7c15ull, 8),
              jump_hash(k * 0x9e3779b97f4a7c15ull, 8));
  // Range + minimal movement: growing 4 -> 5 buckets only ever moves a
  // key INTO the new bucket, never between old ones.
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint32_t a = jump_hash(k, 4);
    const std::uint32_t b = jump_hash(k, 5);
    ASSERT_LT(a, 4u);
    ASSERT_LT(b, 5u);
    if (a != b) {
      EXPECT_EQ(b, 4u) << "key " << k << " moved between old buckets";
      ++moved;
    }
  }
  // Roughly 1/5 of keys move; generous bounds keep this deterministic.
  EXPECT_GT(moved, 4096 / 10);
  EXPECT_LT(moved, 4096 / 3);
}

}  // namespace
}  // namespace psme::shard
