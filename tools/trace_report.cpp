// trace_report: summarize a PSM-E Chrome trace into the paper's tables.
//
// Usage:
//   trace_report TRACE.json [--metrics METRICS.json]
//   trace_report --metrics METRICS.json
//
// Reads a trace written by `psme_cli --trace` (Chrome trace_event JSON,
// see docs/observability.md for the schema) and prints:
//
//   - per-node-kind task counts and busy time (the task mix behind the
//     paper's Table 4-1 activation counts);
//   - per-worker utilisation (events, busy microseconds);
//   - log2 histograms of hash-line lock probes per left/right activation
//     and of task-queue lock probes per task — the contention
//     distributions of Tables 4-7 and 4-8, reconstructed from the trace
//     alone.
//
// With --metrics it cross-checks the trace against the registry dump from
// the same run (`psme_cli --metrics-json`): completed-event counts must
// equal psme.match.tasks_executed and per-side probe sums must equal
// psme.line.probes.left/right. Exits 1 on any mismatch, so the build's
// cli_obs_report test doubles as an end-to-end consistency check.
//
// --metrics alone (no trace) prints only the metrics-derived sections —
// the form sharded runs use, since `psme_cli --shards --metrics-json`
// prices its interconnect in virtual time and emits no per-task trace;
// the sharding section summarizes the psme.shard.* counters
// (docs/sharding.md).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using psme::obs::Json;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: trace_report TRACE.json [--metrics METRICS.json]\n"
               "       trace_report --metrics METRICS.json\n";
  std::exit(msg ? 1 : 0);
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::ostringstream ss;
  ss << in.rdbuf();
  Json out;
  std::string error;
  if (!psme::obs::json_parse(ss.str(), &out, &error))
    usage((path + ": " + error).c_str());
  return out;
}

struct KindAgg {
  std::uint64_t count = 0;
  double busy_us = 0;
  std::uint64_t line_probes = 0;
  std::uint64_t queue_probes = 0;
};

struct WorkerAgg {
  std::string name;
  std::uint64_t events = 0;
  double busy_us = 0;
};

// Same log2 bucketing as obs::Histogram, so the printed distributions line
// up with the psme.*.probes_per_acquisition histograms in a metrics dump.
struct Log2Hist {
  std::uint64_t buckets[psme::obs::kHistogramBuckets] = {};
  std::uint64_t samples = 0;
  std::uint64_t sum = 0;
  void record(std::uint64_t v) {
    buckets[static_cast<std::size_t>(psme::obs::bucket_of(v))] += 1;
    samples += 1;
    sum += v;
  }
  void print(const char* title) const {
    std::printf("  %s: %llu samples, mean %.2f\n", title,
                static_cast<unsigned long long>(samples),
                samples ? static_cast<double>(sum) / samples : 0.0);
    for (int b = 0; b < psme::obs::kHistogramBuckets; ++b) {
      if (!buckets[b]) continue;
      const std::uint64_t lo = psme::obs::bucket_lower_bound(b);
      if (b + 1 < psme::obs::kHistogramBuckets)
        std::printf("    [%6llu, %6llu): %llu\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(
                        psme::obs::bucket_lower_bound(b + 1)),
                    static_cast<unsigned long long>(buckets[b]));
      else
        std::printf("    [%6llu,    inf): %llu\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(buckets[b]));
    }
  }
};

// Flattens a psme.metrics.v1 dump into name -> scalar: counter/gauge
// values, and the mean for histograms.
std::map<std::string, double> metric_values(const Json& dump) {
  std::map<std::string, double> out;
  const Json* metrics = dump.find("metrics");
  if (!metrics || !metrics->is_array()) usage("metrics file: no metrics[]");
  for (const Json& m : metrics->as_array()) {
    const Json* value = m.find("value");
    if (!value) value = m.find("mean");
    if (value && value->is_number())
      out[m.at("name").as_string()] = value->as_double();
  }
  return out;
}

bool check(bool ok, const std::string& what) {
  std::printf("  %-58s %s\n", what.c_str(), ok ? "ok" : "MISMATCH");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage();
    else if (arg == "--metrics") {
      if (i + 1 >= argc) usage("missing value for --metrics");
      metrics_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage(("unknown option " + arg).c_str());
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      usage("more than one trace file given");
    }
  }
  // A trace is required unless --metrics alone is given (sharded runs
  // price their interconnect in virtual time and emit no task trace).
  if (trace_path.empty() && metrics_path.empty())
    usage("no trace file given");
  const bool have_trace = !trace_path.empty();

  std::map<std::string, KindAgg> kinds;
  std::map<std::uint64_t, WorkerAgg> workers;
  Log2Hist line_left, line_right, queue_all;
  std::uint64_t side_probes[2] = {0, 0};  // left, right (join + requeue)
  std::uint64_t completed = 0;

  if (have_trace) {
  const Json trace = load_json(trace_path);
  const Json* events = trace.find("traceEvents");
  if (!events || !events->is_array())
    usage("not a Chrome trace: no traceEvents[]");
  std::string clock = "wall";
  if (const Json* other = trace.find("otherData"))
    if (const Json* c = other->find("clock")) clock = c->as_string();

  double span_end_us = 0;

  for (const Json& ev : events->as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    const std::uint64_t tid = ev.at("tid").as_uint();
    if (ph == "M") {
      if (ev.at("name").as_string() == "thread_name")
        workers[tid].name = ev.at("args").at("name").as_string();
      continue;
    }
    if (ph != "X") continue;
    const std::string& name = ev.at("name").as_string();
    const double dur = ev.number_or("dur", 0);
    const Json& args = ev.at("args");
    const std::uint64_t lp =
        static_cast<std::uint64_t>(args.number_or("line_probes", 0));
    const std::uint64_t qp =
        static_cast<std::uint64_t>(args.number_or("queue_probes", 0));

    KindAgg& k = kinds[name];
    k.count += 1;
    k.busy_us += dur;
    k.line_probes += lp;
    k.queue_probes += qp;

    WorkerAgg& w = workers[tid];
    w.events += 1;
    w.busy_us += dur;

    queue_all.record(qp);
    if (name == "join_left" || name == "requeue_left") {
      line_left.record(lp);
      side_probes[0] += lp;
    } else if (name == "join_right" || name == "requeue_right") {
      line_right.record(lp);
      side_probes[1] += lp;
    }
    span_end_us = std::max(span_end_us, ev.number_or("ts", 0) + dur);
  }

  std::printf("trace %s: %s clock, %.3f ms span\n", trace_path.c_str(),
              clock.c_str(), span_end_us / 1000.0);

  std::printf("\ntasks by node kind:\n");
  for (const auto& [name, k] : kinds) {
    std::printf("  %-13s %8llu tasks  %10.1f us busy  %8llu line probes"
                "  %8llu queue probes\n",
                name.c_str(), static_cast<unsigned long long>(k.count),
                k.busy_us, static_cast<unsigned long long>(k.line_probes),
                static_cast<unsigned long long>(k.queue_probes));
    if (name != "requeue_left" && name != "requeue_right")
      completed += k.count;
  }
  std::printf("  %-13s %8llu tasks (completed; requeues excluded)\n",
              "total", static_cast<unsigned long long>(completed));

  std::printf("\nworkers:\n");
  for (const auto& [tid, w] : workers) {
    std::printf("  tid %2llu %-10s %8llu events  %10.1f us busy\n",
                static_cast<unsigned long long>(tid),
                w.name.empty() ? "?" : w.name.c_str(),
                static_cast<unsigned long long>(w.events), w.busy_us);
  }

  std::printf("\nlock-probe distributions (cf. Tables 4-7 and 4-8):\n");
  line_left.print("line probes per left activation");
  line_right.print("line probes per right activation");
  queue_all.print("queue probes per task");
  }  // have_trace

  if (metrics_path.empty()) return 0;

  const std::map<std::string, double> mv =
      metric_values(load_json(metrics_path));
  auto metric = [&](const char* name) -> double {
    const auto it = mv.find(name);
    if (it == mv.end()) usage(("metrics file lacks " + std::string(name)).c_str());
    return it->second;
  };

  // Memory-layout health: how well the compiled join-key hash spreads
  // (node, key) pairs over the lines, and how many cache lines a bucket
  // scan touches (1.0 = every scan hit only the inline fast slot).
  {
    const auto coll = mv.find("psme.match.line_collisions");
    const auto tasks = mv.find("psme.match.tasks_executed");
    const auto chain = mv.find("psme.match.bucket_chain_len");
    if (coll != mv.end()) {
      std::printf("\nmemory layout:\n");
      std::printf("  line collisions  %12.0f", coll->second);
      if (tasks != mv.end() && tasks->second > 0)
        std::printf("  (%.3f per task)", coll->second / tasks->second);
      std::printf("\n");
      if (chain != mv.end())
        std::printf("  bucket chain len %12.2f  (mean entries walked per "
                    "scan)\n", chain->second);
    }
  }

  // Lock-discipline signature: the scheme-specific contention cost that
  // the Table 4-7/4-8 probe distributions above cannot see — MRSW conflicts
  // come back as requeued tasks.
  {
    const auto req = mv.find("psme.match.requeues");
    const auto tasks = mv.find("psme.match.tasks_executed");
    if (req != mv.end() && req->second > 0) {
      std::printf("\nlock discipline:\n");
      std::printf("  mrsw requeues    %12.0f", req->second);
      if (tasks != mv.end() && tasks->second > 0)
        std::printf("  (%.3f per task)", req->second / tasks->second);
      std::printf("\n");
    }
  }

  // Sharded-match interconnect summary (docs/sharding.md): present only
  // in dumps from `psme_cli --shards --metrics-json` / ShardGroup::
  // export_obs. Virtual times are in simulated instructions (CostModel);
  // makespan overlaps compute with communication, so it is at most their
  // sum and the overlap line shows how much the batching discipline hid.
  {
    const auto shards = mv.find("psme.shard.shards");
    if (shards != mv.end()) {
      auto opt = [&](const char* name) -> double {
        const auto it = mv.find(name);
        return it != mv.end() ? it->second : 0.0;
      };
      const double batches = opt("psme.shard.batches");
      const double frames = opt("psme.shard.frames");
      const double compute = opt("psme.shard.vtime.compute");
      const double comm = opt("psme.shard.vtime.comm");
      const double makespan = opt("psme.shard.vtime.makespan");
      std::printf("\nsharding:\n");
      std::printf("  shards           %12.0f  (%.0f sessions)\n",
                  shards->second, opt("psme.shard.sessions"));
      std::printf("  batches          %12.0f", batches);
      if (batches > 0)
        std::printf("  (%.2f frames each)", frames / batches);
      std::printf("\n");
      std::printf("  bytes sent       %12.0f  (%.0f received)\n",
                  opt("psme.shard.bytes_sent"),
                  opt("psme.shard.bytes_received"));
      std::printf("  forwards         %12.0f  (%.0f deltas, %.0f dropped)\n",
                  opt("psme.shard.forwards"), opt("psme.shard.deltas"),
                  opt("psme.shard.dropped"));
      std::printf("  tasks            %12.0f  over %.0f rounds\n",
                  opt("psme.shard.tasks"), opt("psme.shard.rounds"));
      std::printf("  vtime compute    %12.0f  instructions\n", compute);
      std::printf("  vtime comm       %12.0f  instructions\n", comm);
      std::printf("  vtime makespan   %12.0f", makespan);
      if (compute + comm > 0)
        std::printf("  (%.1f%% of compute+comm overlapped away)",
                    100.0 * (1.0 - makespan / (compute + comm)));
      std::printf("\n");
      std::printf("  overlap saved    %12.0f  idle-wait vtime vs a sync barrier\n",
                  opt("psme.shard.overlap.saved_vtime"));
      std::printf("  replicated       %12.0f  keyless node(s), %.0f local keeps\n",
                  opt("psme.shard.replicated_nodes"),
                  opt("psme.shard.replicated_keeps"));
    }
  }

  if (!have_trace) return 0;

  std::printf("\ncross-check against %s:\n", metrics_path.c_str());
  bool ok = true;
  ok &= check(static_cast<double>(completed) ==
                  metric("psme.match.tasks_executed"),
              "completed events == psme.match.tasks_executed");
  ok &= check(static_cast<double>(side_probes[0]) ==
                  metric("psme.line.probes.left"),
              "left-event line probes == psme.line.probes.left");
  ok &= check(static_cast<double>(side_probes[1]) ==
                  metric("psme.line.probes.right"),
              "right-event line probes == psme.line.probes.right");
  // The control process pushes root tasks outside any traced task, so the
  // trace can only account for a subset of all queue probes.
  ok &= check(static_cast<double>(queue_all.sum) <=
                  metric("psme.queue.probes"),
              "traced queue probes <= psme.queue.probes");
  return ok ? 0 : 1;
}
