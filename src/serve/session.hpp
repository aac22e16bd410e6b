// Session: one client's engine state behind a text command protocol.
//
// A session executes one command per request, with an optional
// per-request deadline:
//
//   make (class ^attr value ...)      -> ok <timetag>
//   modify <timetag> ^attr value ...  -> ok <new-timetag>   (remove + make)
//   remove <timetag>                  -> ok <timetag>
//   run [max-cycles]                  -> ok cycles=<delta> total=<total>
//                                           reason=<halt|empty|max-cycles>
//   dump                              -> ok <n>\n<wme literal per line>
//   trace                             -> ok <n>\n<prod tag tag ... per line>
//   stats                             -> ok cycles=<n> firings=<n> wm=<n>
//   checkpoint                        -> ok <single-line checkpoint JSON>
//   restore <checkpoint JSON>         -> ok <cycles restored>
//
// Failures answer `err <reason ...>`. `run` executes in small slices and
// checks the deadline between slices, so a request can never overrun its
// deadline by more than one slice; a deadline miss answers
// `err deadline ...` with the state advanced by the cycles already run
// (working memory stays consistent — slicing stops only at quiescent
// points).
//
// Sessions are not internally synchronized: the Server serializes the
// requests of one session and runs different sessions in parallel.
//
// A session runs on one backend interface, SessionBackend
// (engine/control.hpp): a slot whose state is one Control. The slot is an
// owned Engine (engine-per-session, any execution mode), one world of a
// shared world::BatchEngine (Server::open_batch_sessions) or one session
// of a shared shard::ShardGroup (Server::open_shard_sessions) — same
// protocol, same responses, and N sessions over one compiled Rete network
// for the shared ones. `restore` resets the slot and replays the
// checkpoint into it: for an owned Engine that is a fresh Engine, for a
// shard session the drain/migration path — the same psme.checkpoint.v1
// document restores into any engine mode, world or shard topology.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "engine/engine.hpp"

namespace psme::rr {
struct SessionTranscript;  // rr/session_rr.hpp
}

namespace psme::serve {

using Deadline = std::chrono::steady_clock::time_point;
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

struct Response {
  bool ok = false;
  std::string text;  // payload after the ok/err verb
  // Server stamps (microseconds since the server's epoch); zero when the
  // session is driven directly.
  double enqueue_us = 0;
  double complete_us = 0;

  std::string render() const { return (ok ? "ok " : "err ") + text; }
};

class Session {
 public:
  // `program` must outlive the session. The engine is constructed
  // immediately (Rete compilation happens here, not per request).
  Session(const ops5::Program& program, EngineConfig config);
  // Slot `slot` of a shared backend (not owned; must outlive the session):
  // a world of a world::BatchEngine, which must run inline match (`run`
  // slices execute on the request thread, concurrently across sessions),
  // or a session of a shard::ShardGroup, whose requests serialize on the
  // group's own mutex (so the Server's front tier opens one ShardGroup per
  // lane). Throws invalid_argument if the slot cannot run on its own.
  Session(const ops5::Program& program, SessionBackend* backend,
          std::uint32_t slot);

  // Executes one protocol command. Never throws: protocol and engine
  // errors come back as `err` responses.
  Response execute(const std::string& line, Deadline deadline = kNoDeadline);

  // Engine-backed sessions only (null for world-/shard-backed ones).
  const psme::Engine* engine() const;
  const std::vector<FiringRecord>& trace() const { return control().trace; }
  std::uint64_t requests() const { return requests_; }

  // Record every (command, response) pair into `t` (not owned; must
  // outlive the session; nullptr disables). rr::replay_transcript re-runs
  // the transcript bit-identically offline.
  void set_transcript(rr::SessionTranscript* t) { transcript_ = t; }

  // Recognize-act cycles per deadline-check slice of `run`.
  static constexpr std::uint64_t kRunSlice = 32;

 private:
  Response dispatch(const std::string& line, Deadline deadline);
  Response cmd_make(const std::string& args);
  Response cmd_modify(const std::string& args);
  Response cmd_remove(const std::string& args);
  Response cmd_run(const std::string& args, Deadline deadline);
  Response cmd_dump() const;
  Response cmd_trace() const;
  Response cmd_stats() const;
  Response cmd_checkpoint() const;
  Response cmd_restore(const std::string& args);

  const Control& control() const { return backend_->control(slot_); }

  const ops5::Program& program_;
  // Owned only for engine-per-session sessions; a shared backend's owner
  // (the Server) outlives its sessions, so those get a no-op deleter.
  std::shared_ptr<SessionBackend> backend_;
  std::uint32_t slot_ = 0;
  std::uint64_t requests_ = 0;
  rr::SessionTranscript* transcript_ = nullptr;
};

}  // namespace psme::serve
