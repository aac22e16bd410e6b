#include "obs/trace.hpp"

#include <cstdio>
#include <ostream>
#include <string>

namespace psme::obs {

std::string_view trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::Root: return "root";
    case TraceEventKind::JoinLeft: return "join_left";
    case TraceEventKind::JoinRight: return "join_right";
    case TraceEventKind::Terminal: return "terminal";
    case TraceEventKind::RequeueLeft: return "requeue_left";
    case TraceEventKind::RequeueRight: return "requeue_right";
  }
  return "unknown";
}

void TraceRecorder::enable(int num_workers, std::string clock) {
  buffers_.clear();
  if (num_workers < 1) num_workers = 1;
  for (int i = 0; i < num_workers; ++i)
    buffers_.push_back(std::make_unique<WorkerBuffer>());
  clock_ = std::move(clock);
  epoch_ = std::chrono::steady_clock::now();
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->events.size();
  return n;
}

void TraceRecorder::write_json(std::ostream& os) const {
  // Streamed rather than built as a Json value: traces reach millions of
  // events and the value tree would double peak memory.
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"tool\": "
        "\"psme\", \"clock\": \"";
  os << (clock_.empty() ? "wall" : clock_);
  os << "\"},\n\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << "\n  ";
  };
  for (std::size_t w = 0; w < buffers_.size(); ++w) {
    sep();
    os << R"({"ph": "M", "pid": 0, "tid": )" << w
       << R"(, "name": "thread_name", "args": {"name": ")"
       << (w == 0 ? std::string("control")
                  : "match-" + std::to_string(w - 1))
       << "\"}}";
  }
  char num[64];
  for (std::size_t w = 0; w < buffers_.size(); ++w) {
    for (const TraceEvent& ev : buffers_[w]->events) {
      sep();
      os << R"({"ph": "X", "pid": 0, "tid": )" << w << R"(, "name": ")"
         << trace_event_name(ev.kind) << R"(", "cat": "task", "ts": )";
      std::snprintf(num, sizeof num, "%.3f", ev.ts_us);
      os << num << R"(, "dur": )";
      std::snprintf(num, sizeof num, "%.3f", ev.dur_us);
      os << num << R"(, "args": {"node": )" << ev.node << R"(, "sign": )"
         << static_cast<int>(ev.sign) << R"(, "line_probes": )"
         << ev.line_probes << R"(, "queue_probes": )" << ev.queue_probes
         << "}}";
    }
  }
  os << "\n]\n}\n";
}

}  // namespace psme::obs
