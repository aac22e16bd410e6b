// Per-task trace recorder with Chrome trace_event JSON export.
//
// Both parallel drivers emit one complete ("ph":"X") event per executed
// match task — node kind, owning worker, begin timestamp, duration — into
// per-worker buffers (no cross-worker sharing on the hot path). The
// threaded engine stamps events with the wall clock; the Multimax
// simulator stamps them with its virtual NS32032 clock, so a simulated
// trace shows the exact interleaving the contention tables are computed
// from. Load the written file in chrome://tracing or https://ui.perfetto.dev,
// or summarize it with tools/trace_report.
//
// Event args carry the lock-probe counts accrued during the task, which is
// what lets trace_report reconstruct the paper's Table 4-7/4-8-style
// contention reports from a trace alone (docs/observability.md documents
// the schema).
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace psme::obs {

enum class TraceEventKind : std::uint8_t {
  Root,          // alpha-network activation of one wme change
  JoinLeft,      // completed left activation of a two-input node
  JoinRight,     // completed right activation
  Terminal,      // conflict-set insert/delete
  RequeueLeft,   // MRSW line held by the other side; task put back (left)
  RequeueRight,  // same, right activation
};
std::string_view trace_event_name(TraceEventKind kind);

struct TraceEvent {
  double ts_us = 0;   // begin, microseconds since run start (wall or virtual)
  double dur_us = 0;  // duration, microseconds
  TraceEventKind kind = TraceEventKind::Root;
  std::int8_t sign = +1;           // +1 token add, -1 token delete
  std::uint32_t node = 0;          // join node id / terminal production index
  std::uint32_t line_probes = 0;   // hash-line lock probes during the task
  std::uint32_t queue_probes = 0;  // task-queue lock probes during the task
};

class TraceRecorder {
 public:
  // (Re-)arms the recorder for a run with `num_workers` event streams
  // (stream 0 is the control process, 1..k the match processes). `clock`
  // labels the timestamp domain: "wall" or "virtual".
  void enable(int num_workers, std::string clock);
  bool enabled() const { return !buffers_.empty(); }
  const std::string& clock() const { return clock_; }
  // Wall-clock drivers' timestamps: microseconds since the last enable().
  double wall_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Appends to stream `worker`'s buffer, which only that worker's thread
  // may write: a stream outside [0, num_workers) is a caller bug.
  void record(int worker, const TraceEvent& ev) {
    if (buffers_.empty()) return;
    assert(worker >= 0 &&
           static_cast<std::size_t>(worker) < buffers_.size());
    buffers_[static_cast<std::size_t>(worker)]->events.push_back(ev);
  }

  std::size_t event_count() const;

  // Chrome trace_event JSON object format: thread-name metadata events for
  // every worker, then one "X" event per recorded task.
  void write_json(std::ostream& os) const;

 private:
  struct alignas(64) WorkerBuffer {
    std::vector<TraceEvent> events;
  };
  std::vector<std::unique_ptr<WorkerBuffer>> buffers_;
  std::string clock_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace psme::obs
