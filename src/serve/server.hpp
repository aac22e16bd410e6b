// Server: a bounded request queue feeding a worker pool that multiplexes
// many sessions over one process.
//
// Clients open sessions (each owning an engine in a configurable execution
// mode) and submit protocol commands (serve/session.hpp); a fixed pool of
// worker threads executes them. Two admission-control knobs keep the
// server responsive under overload:
//
//  - backpressure: the request queue is bounded (ServerConfig::
//    queue_capacity); submit() on a full queue is rejected immediately
//    with `err overloaded ...` instead of queuing unbounded work;
//  - deadline shedding: a request whose deadline has already passed when
//    a worker picks it up is answered `err deadline ...` without touching
//    the engine (and `run` slices check the deadline while executing).
//
// Each session is an actor: its requests wait in its own inbox, and only
// sessions with work go on the server's ready queue, so exactly one worker
// runs a session at a time and its requests execute in submission order.
// Different sessions run in parallel across the pool.
// drain() is the graceful shutdown: it stops admission, lets the queue
// empty, and joins the workers — queued work is finished, not dropped.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "serve/session.hpp"
#include "shard/shard_group.hpp"

namespace psme::serve {

using SessionId = std::uint64_t;

struct ServerConfig {
  int workers = 4;
  std::size_t queue_capacity = 1024;
  // Admission control for opens: 0 = unlimited, otherwise open_session /
  // open_batch_sessions / open_shard_sessions reject (throw) once this
  // many sessions are live. Bounds engine memory the same way
  // queue_capacity bounds queued work.
  std::size_t max_sessions = 0;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed_overload = 0;  // rejected at submit (queue full/draining)
  std::uint64_t shed_deadline = 0;  // expired before a worker picked them up
  std::uint64_t completed = 0;      // executed (ok or err) by a worker
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  // drains

  // Sessions. `program` must outlive the session.
  SessionId open_session(const ops5::Program& program, EngineConfig config);
  // Batched sessions: one world::BatchEngine with `count` worlds, one
  // session per world slot. The Rete network compiles ONCE for all of
  // them (vs once per open_session) and requests for different slots run
  // in parallel on the worker pool — each drives only its own world.
  // Requires config.options.match_processes == 0 (inline match; the slice
  // executes on the worker thread). The engine lives until drain().
  std::vector<SessionId> open_batch_sessions(const ops5::Program& program,
                                             EngineConfig config,
                                             std::uint32_t count);
  // Sharded sessions: `count` sessions spread over `lanes` independent
  // shard::ShardGroups of `shards` shards each (sessions -> lanes by
  // contiguous blocks). One ShardGroup serializes its sessions' requests
  // on its own coordinator mutex, so lanes — not shards — are the
  // front-tier parallelism knob; shards partition the match WITHIN a
  // lane. `keyless` picks the keyless-join policy (shard/partition.hpp)
  // and defaults to ShardGroupConfig's. `checkpoint`/`restore` on these
  // sessions is the drain / migration path: the psme.checkpoint.v1
  // document restores into any topology. The groups live until drain().
  std::vector<SessionId> open_shard_sessions(
      const ops5::Program& program, EngineConfig config, std::uint32_t count,
      std::uint16_t shards, shard::TransportKind transport,
      std::uint16_t lanes = 1,
      shard::KeylessPolicy keyless = shard::ShardGroupConfig{}.keyless);
  bool close_session(SessionId id);  // queued requests answer `err`
  std::size_t session_count() const;

  // Enqueues one command. The future resolves when a worker has executed
  // it; on overload or after drain() it is already resolved with `err`.
  std::future<Response> submit(SessionId id, std::string line,
                               Deadline deadline = kNoDeadline);
  // Synchronous convenience: submit + wait.
  Response call(SessionId id, std::string line, Deadline deadline = kNoDeadline);

  // Post-drain inspection (e.g. trace verification). Not synchronized
  // against in-flight requests for the same session.
  Session* session(SessionId id);

  // Graceful shutdown: reject new work, finish everything queued, join
  // the workers. Idempotent; the destructor calls it.
  void drain();

  ServerStats stats() const;
  // Microseconds since the server's epoch (the Response timestamp base).
  double now_us() const;

 private:
  struct Item {
    SessionId id = 0;
    std::string line;
    Deadline deadline;
    std::promise<Response> promise;
    double enqueue_us = 0;
  };
  struct Entry {
    std::unique_ptr<Session> session;
    // Guarded by Server::mu_. `scheduled` is set while the entry is on
    // ready_ or a worker is executing one of its requests.
    std::deque<Item> inbox;
    bool scheduled = false;
    bool closed = false;
    std::mutex busy;  // held while executing; close_session waits on it
  };

  // The one registration path of every open_*: admission control, then
  // `backends` (shared by some of `sessions`) join backends_ and each
  // session gets the next id.
  std::vector<SessionId> add_sessions(
      std::vector<std::unique_ptr<Session>> sessions,
      std::vector<std::unique_ptr<SessionBackend>> backends);
  void worker_main();

  ServerConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards sessions_, ready_, inboxes, stats_, flags
  std::condition_variable work_cv_;   // workers: ready_ non-empty or stopping
  std::condition_variable drain_cv_;  // drain(): nothing queued and idle
  // Shared backends behind batch/shard sessions. Declared before
  // sessions_ so they are destroyed after every Session that points into
  // them.
  std::vector<std::unique_ptr<SessionBackend>> backends_;
  std::unordered_map<SessionId, std::shared_ptr<Entry>> sessions_;
  std::deque<std::shared_ptr<Entry>> ready_;  // sessions with queued work
  std::vector<std::thread> workers_;
  SessionId next_id_ = 1;
  std::size_t queued_ = 0;  // requests in inboxes, bounded by queue_capacity
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
  ServerStats stats_;
};

}  // namespace psme::serve
