// The PR's acceptance bar: a 64-session sharded run (4+ shards, both
// transports) must produce per-cycle rr digests — WM digest and merged
// conflict-set digest at every quiescent point — identical to a
// single-engine run of each session, plus identical firing traces, in
// BOTH keyless policies (owner, replicate).
// A divergence names the first (session, cycle) pair, and the per-shard
// conflict-set detail then names the first SHARD whose local entries are
// not a subset of the reference conflict set, so a partition bug is
// localizable to the shard that produced it.
#include <gtest/gtest.h>

#include "engine/sequential_engine.hpp"
#include "rr/digest.hpp"
#include "shard/shard_group.hpp"
#include "workloads/workloads.hpp"
#include "world/world.hpp"

namespace psme::shard {
namespace {

constexpr std::uint32_t kSessions = 64;
constexpr std::uint64_t kCycles = 12;

// Same per-session variation scheme as the world equivalence suite:
// session s drops one deterministic card from the shared rubik deck.
std::vector<std::string> session_wmes(const workloads::Workload& wl,
                                      std::uint32_t session) {
  const std::uint64_t seed = world::WorldPool::world_seed(0, session);
  const std::size_t drop = seed % wl.initial_wmes.size();
  std::vector<std::string> wmes;
  wmes.reserve(wl.initial_wmes.size() - 1);
  for (std::size_t i = 0; i < wl.initial_wmes.size(); ++i)
    if (i != drop) wmes.push_back(wl.initial_wmes[i]);
  return wmes;
}

struct SessionRef {
  std::vector<FiringRecord> trace;
  std::vector<world::World::DigestRow> digests;
  // Sorted conflict-set entry hashes at each captured cycle, for the
  // shard-level subset check on divergence.
  std::vector<std::vector<std::uint64_t>> cs_entries;
};

SessionRef sequential_ref(const ops5::Program& program,
                          const std::vector<std::string>& wmes) {
  SequentialEngine eng(program, EngineOptions{});
  for (const std::string& lit : wmes) eng.make(lit);
  eng.set_max_cycles(0);
  eng.run();
  SessionRef ref;
  ref.digests.push_back(
      {0, rr::wm_digest(eng.wm()), rr::cs_digest(eng.conflict_set())});
  ref.cs_entries.push_back(rr::cs_entry_hashes(eng.conflict_set()));
  for (std::uint64_t c = 1; c <= kCycles; ++c) {
    eng.set_max_cycles(c);
    eng.run();
    if (eng.stats().cycles < c) break;
    ref.digests.push_back(
        {c, rr::wm_digest(eng.wm()), rr::cs_digest(eng.conflict_set())});
    ref.cs_entries.push_back(rr::cs_entry_hashes(eng.conflict_set()));
  }
  ref.trace = eng.trace();
  return ref;
}

// Is `sub` (sorted) a multiset subset of `super` (sorted)?
bool sorted_subset(const std::vector<std::uint64_t>& sub,
                   const std::vector<std::uint64_t>& super) {
  std::size_t j = 0;
  for (const std::uint64_t h : sub) {
    while (j < super.size() && super[j] < h) ++j;
    if (j == super.size() || super[j] != h) return false;
    ++j;
  }
  return true;
}

void expect_sessions_match(ShardGroup& group,
                           const std::vector<SessionRef>& refs,
                           const char* label) {
  for (std::uint32_t s = 0; s < group.num_sessions(); ++s) {
    const auto& digests = group.digests(s);
    const SessionRef& ref = refs[s];
    const auto& detail = group.cs_detail(s);
    const std::size_t rows = std::min(digests.size(), ref.digests.size());
    for (std::size_t i = 0; i < rows; ++i) {
      if (digests[i] == ref.digests[i]) continue;
      // Name the shard that owns the divergence: the first one whose
      // local conflict-set entries are not a subset of the reference's.
      std::string shard_note = "cs per-shard detail unavailable";
      if (i < detail.size()) {
        for (std::size_t k = 0; k < detail[i].per_shard.size(); ++k) {
          if (!sorted_subset(detail[i].per_shard[k], ref.cs_entries[i])) {
            shard_note = "first divergent shard: " + std::to_string(k);
            break;
          }
        }
      }
      FAIL() << label << ": session " << s << " first diverges at cycle "
             << ref.digests[i].cycle << " (wm "
             << (digests[i].wm == ref.digests[i].wm ? "equal" : "DIFFERS")
             << ", cs "
             << (digests[i].cs == ref.digests[i].cs ? "equal" : "DIFFERS")
             << "; " << shard_note << ")";
    }
    ASSERT_EQ(digests.size(), ref.digests.size())
        << label << ": session " << s << " digest row count";
    ASSERT_EQ(group.trace(s), ref.trace)
        << label << ": session " << s << " firing trace";
  }
}

// The 64 sequential references are the expensive half; compute them once
// and share them across the two keyless-policy tests.
const workloads::Workload& rubik_wl() {
  static const auto wl = workloads::rubik(6);
  return wl;
}
const ops5::Program& rubik_program() {
  static const auto program = ops5::Program::from_source(rubik_wl().source);
  return program;
}
const std::vector<SessionRef>& rubik_refs() {
  static const std::vector<SessionRef> refs = [] {
    std::vector<SessionRef> r;
    r.reserve(kSessions);
    for (std::uint32_t s = 0; s < kSessions; ++s)
      r.push_back(sequential_ref(rubik_program(), session_wmes(rubik_wl(), s)));
    return r;
  }();
  return refs;
}

// One cell of the acceptance matrix: 64 sessions, 4 shards, both
// transports, under the given keyless policy.
void run_matrix_cell(KeylessPolicy keyless) {
  const std::vector<SessionRef>& refs = rubik_refs();
  for (const TransportKind t :
       {TransportKind::InProc, TransportKind::Socket}) {
    EngineOptions opt;
    opt.hash_buckets = 64;
    ShardGroupConfig cfg;
    cfg.shards = 4;
    cfg.sessions = kSessions;
    cfg.transport = t;
    cfg.keyless = keyless;
    ShardGroup group(rubik_program(), opt, cfg);
    group.set_digest_capture(true, /*per_shard_detail=*/true);
    for (std::uint32_t s = 0; s < kSessions; ++s) {
      for (const std::string& lit : session_wmes(rubik_wl(), s))
        group.make(s, lit);
      group.set_max_cycles(s, kCycles);
    }
    group.run_all();
    const std::string label =
        std::string(t == TransportKind::Socket ? "socket/4" : "inproc/4") +
        (keyless == KeylessPolicy::Replicate ? " keyless=replicate"
                                             : " keyless=owner");
    expect_sessions_match(group, refs, label.c_str());
    const GroupStats gs = group.group_stats();
    EXPECT_GT(gs.rounds, 0u) << label;
    if (keyless == KeylessPolicy::Owner) {
      EXPECT_EQ(gs.replicated_nodes, 0u) << label;
      EXPECT_EQ(gs.replicated_keeps, 0u) << label;
    }
  }
}

TEST(ShardEquivalence, SixtyFourSessionsFourShardsOwnerOverlap) {
  run_matrix_cell(KeylessPolicy::Owner);
}
TEST(ShardEquivalence, SixtyFourSessionsFourShardsReplicateOverlap) {
  run_matrix_cell(KeylessPolicy::Replicate);
}

TEST(ShardEquivalence, TourneyKeylessMatrixMatchesSequential) {
  // tourney is the keyless-heavy workload (the 1.07x ceiling this PR's
  // replication lifts): prove both keyless policies on it too, and that
  // Replicate actually replicates nodes here.
  const auto wl = workloads::tourney(6);
  const auto program = ops5::Program::from_source(wl.source);
  constexpr std::uint32_t kTourneySessions = 8;
  std::vector<SessionRef> refs;
  for (std::uint32_t s = 0; s < kTourneySessions; ++s)
    refs.push_back(sequential_ref(program, session_wmes(wl, s)));
  for (const KeylessPolicy keyless :
       {KeylessPolicy::Owner, KeylessPolicy::Replicate}) {
    for (const TransportKind t :
         {TransportKind::InProc, TransportKind::Socket}) {
      EngineOptions opt;
      opt.hash_buckets = 64;
      ShardGroupConfig cfg;
      cfg.shards = 4;
      cfg.sessions = kTourneySessions;
      cfg.transport = t;
      cfg.keyless = keyless;
      ShardGroup group(program, opt, cfg);
      group.set_digest_capture(true, /*per_shard_detail=*/true);
      for (std::uint32_t s = 0; s < kTourneySessions; ++s) {
        for (const std::string& lit : session_wmes(wl, s))
          group.make(s, lit);
        group.set_max_cycles(s, kCycles);
      }
      group.run_all();
      const std::string label =
          std::string("tourney ") +
          (t == TransportKind::Socket ? "socket" : "inproc") +
          (keyless == KeylessPolicy::Replicate ? " replicate" : " owner");
      expect_sessions_match(group, refs, label.c_str());
      const GroupStats gs = group.group_stats();
      if (keyless == KeylessPolicy::Replicate) {
        EXPECT_GT(gs.replicated_nodes, 0u) << label;
        EXPECT_GT(gs.replicated_keeps, 0u) << label;
      }
    }
  }
}

TEST(ShardEquivalence, ShardCountIsBehaviorInvisible) {
  // 1, 2 and 8 shards: the partition (and the compiled-key routing
  // underneath it) must not change any digest row.
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);
  std::vector<SessionRef> refs;
  for (std::uint32_t s = 0; s < 8; ++s)
    refs.push_back(sequential_ref(program, session_wmes(wl, s)));
  for (const std::uint16_t shards : {1, 2, 8}) {
    EngineOptions opt;
    opt.hash_buckets = 64;
    ShardGroupConfig cfg;
    cfg.shards = shards;
    cfg.sessions = 8;
    ShardGroup group(program, opt, cfg);
    group.set_digest_capture(true, /*per_shard_detail=*/true);
    for (std::uint32_t s = 0; s < 8; ++s) {
      for (const std::string& lit : session_wmes(wl, s)) group.make(s, lit);
      group.set_max_cycles(s, kCycles);
    }
    group.run_all();
    expect_sessions_match(group, refs,
                          ("shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardEquivalence, RestoredSessionContinuesTheReferenceTrace) {
  // Drain/migration mid-flight: snapshot at cycle 6 from a 2-shard
  // group, restore into a 4-shard group, and compare the NEXT cycles'
  // digests against the uninterrupted reference.
  const auto wl = workloads::rubik(6);
  const auto program = ops5::Program::from_source(wl.source);
  // Dropping some cards stops rubik early; pick a session that runs on.
  std::vector<std::string> wmes;
  SessionRef ref;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    wmes = session_wmes(wl, s);
    ref = sequential_ref(program, wmes);
    if (ref.digests.size() > 8u) break;
  }
  ASSERT_GT(ref.digests.size(), 8u);

  EngineOptions opt;
  opt.hash_buckets = 64;
  ShardGroupConfig src_cfg;
  src_cfg.shards = 2;
  src_cfg.sessions = 1;
  // Migrate across policies too: the checkpoint replays wmes through the
  // coordinator, so the destination rebuilds all partition state under
  // its own (here: replicate, the default) routing.
  src_cfg.keyless = KeylessPolicy::Owner;
  ShardGroup source(program, opt, src_cfg);
  for (const std::string& lit : wmes) source.make(0, lit);
  source.set_max_cycles(0, 6);
  source.run_all();
  const EngineSnapshot snap = source.snapshot_session(0);

  ShardGroupConfig dst_cfg;
  dst_cfg.shards = 4;
  dst_cfg.sessions = 1;
  ShardGroup dest(program, opt, dst_cfg);
  dest.set_digest_capture(true);
  dest.restore_session(0, snap);
  dest.set_max_cycles(0, kCycles);
  dest.run_session(0);
  EXPECT_EQ(dest.trace(0), ref.trace);
  // The restored run's digest rows start at the snapshot cycle and must
  // overlay the reference's tail exactly.
  const auto& digests = dest.digests(0);
  ASSERT_FALSE(digests.empty());
  EXPECT_EQ(digests.front().cycle, 6u);
  for (const auto& row : digests) {
    ASSERT_LT(row.cycle, ref.digests.size());
    EXPECT_EQ(row, ref.digests[row.cycle])
        << "restored session diverges at cycle " << row.cycle;
  }
}

}  // namespace
}  // namespace psme::shard
