// Versioned on-disk format for schedule recordings (`psme.replay.v1`).
//
// A ReplayLog is self-contained: the header embeds the OPS5 source and
// initial wme literals, so a log replays without the workload generators
// that produced it. The body is one CycleRecord per recognize-act cycle
// (plus a cycle 0 for the initial-wme load): the WM/conflict-set digests
// at that quiescent point and the ordered task commits (endpoint + task
// fingerprint) of the match phase that led to it. The firing trace
// rides along so a replay can also be diffed against the recorded firings.
//
// 64-bit digests/fingerprints are serialized as decimal *strings* —
// obs::Json stores numbers as doubles, which cannot round-trip a u64.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/options.hpp"
#include "obs/json.hpp"

namespace psme::rr {

// One recorded scheduling decision: worker `ep` committed the task with
// fingerprint `fp`. Recorded at the task's *commit point* (for joins,
// inside its line-lock region — see rr/recorder.hpp) so the log order is
// a valid serialization, lock-contention requeues vanish from the log,
// and parents always precede the children they emit.
struct PopRecord {
  unsigned ep = 0;
  std::uint64_t fp = 0;
  bool operator==(const PopRecord&) const = default;
};

struct CycleRecord {
  std::uint64_t wm_digest = 0;
  std::uint64_t cs_digest = 0;
  std::vector<PopRecord> pops;
  // Optional per-instantiation hashes (sorted) for entry-level divergence
  // diffs; empty unless the recorder was asked to store them.
  std::vector<std::uint64_t> cs_entries;
  bool operator==(const CycleRecord&) const = default;
};

struct LogHeader {
  std::string workload;                   // display label
  std::string source;                     // OPS5 program text
  std::vector<std::string> initial_wmes;  // wme literals, admission order
  std::string mode = "threads";           // "seq" | "threads" | "sim"
  std::string scheduler = "central";      // "central" | "steal"
  std::string lock_scheme = "simple";     // "simple" | "mrsw"
  std::string strategy = "lex";           // "lex" | "mea"
  int match_processes = 0;
  int task_queues = 1;
  std::uint64_t seed = 0;
  std::uint64_t max_cycles = 0;
  // Structure hash of the compiled program; replay refuses a log whose
  // program doesn't match what it compiled from `source`.
  std::uint64_t program_fingerprint = 0;
  bool operator==(const LogHeader&) const = default;
};

struct ReplayLog {
  static constexpr std::string_view kSchema = "psme.replay.v1";

  LogHeader header;
  std::vector<CycleRecord> cycles;
  std::vector<FiringRecord> trace;

  std::size_t pop_count() const;

  obs::Json to_json() const;
  std::string serialize(int indent = 0) const;
  // Both return false and fill *error on malformed input or schema
  // mismatch.
  static bool from_json(const obs::Json& doc, ReplayLog* out,
                        std::string* error);
  static bool deserialize(std::string_view text, ReplayLog* out,
                          std::string* error);

  bool operator==(const ReplayLog&) const = default;
};

// u64 <-> decimal string (see file comment).
std::string u64_to_string(std::uint64_t v);
bool u64_from_json(const obs::Json& j, std::uint64_t* out);

}  // namespace psme::rr
