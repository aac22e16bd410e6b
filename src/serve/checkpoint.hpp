// Working-memory checkpoints: serialize/restore a quiescent engine.
//
// A checkpoint is the serialized form of EngineSnapshot (engine/control.hpp):
// live wmes with their original timetags, the timetag counter, the
// conflict set's refraction state (which live instantiations already
// fired), and the firing trace position. Match memories are deliberately
// absent — they are a pure function of working memory, and restore()
// rebuilds them by replaying the wmes through whatever matcher the target
// engine uses. That makes one checkpoint restorable into *any* execution
// mode, and the deterministic conflict resolution guarantees
// restore-then-continue reproduces the uninterrupted firing trace
// (tests/checkpoint_test.cpp proves it per mode × workload).
//
// Format: a single JSON document, schema "psme.checkpoint.v1":
//
//   { "schema": "psme.checkpoint.v1",
//     "fingerprint": <program fingerprint, decimal string>,
//     "next_timetag": T, "cycles": C, "halted": false,
//     "wmes":  [[tag, "class", [field, ...]], ...],
//     "fired": [[prod, [tag, ...]], ...],
//     "trace": [[prod, [tag, ...]], ...] }
//
// Fields encode OPS5 values as: null (nil), "sym" (symbols), numbers
// (integers), {"f": x} (floats — kept distinct so a restored wme is
// bit-identical). The fingerprint hashes the program's production names
// and class layouts; restore() refuses a checkpoint taken under a
// different program.
#pragma once

#include <string>
#include <string_view>

#include "engine/engine_base.hpp"
#include "obs/json.hpp"

namespace psme::serve {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& msg)
      : std::runtime_error("checkpoint: " + msg) {}
};

struct Checkpoint {
  std::uint64_t fingerprint = 0;
  EngineSnapshot snapshot;

  // Captures `engine` (must be between runs — at a quiescent point).
  static Checkpoint capture(const EngineBase& engine);
  // Wraps a snapshot taken outside EngineBase (a world slot of a
  // world::BatchEngine) in the same psme.checkpoint.v1 format — one
  // checkpoint restores into any engine mode or world.
  static Checkpoint capture(const ops5::Program& program,
                            EngineSnapshot snapshot);
  // Injects into a freshly constructed engine compiled from the same
  // program; throws CheckpointError on fingerprint mismatch.
  void restore(EngineBase& engine) const;
  // Fingerprint check alone, for callers that restore into a world slot
  // (SessionBackend::reset_session + restore_session) instead of an
  // EngineBase.
  void verify(const ops5::Program& program) const;

  obs::Json to_json() const;
  static Checkpoint from_json(const obs::Json& doc);  // throws on mismatch
  std::string serialize(int indent = 0) const;
  static Checkpoint deserialize(std::string_view text);

  // Stable hash of production names + class slot layouts.
  static std::uint64_t fingerprint_of(const ops5::Program& program);
};

}  // namespace psme::serve
