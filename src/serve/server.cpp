#include "serve/server.hpp"

#include <algorithm>

#include "world/batch_engine.hpp"

namespace psme::serve {

namespace {

// One session per slot of `backend`, slots [0, n).
void add_slots(std::vector<std::unique_ptr<Session>>& out,
               const ops5::Program& program, SessionBackend* backend,
               std::uint32_t n) {
  for (std::uint32_t slot = 0; slot < n; ++slot)
    out.push_back(std::make_unique<Session>(program, backend, slot));
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (config_.workers < 1)
    throw std::invalid_argument("Server requires at least one worker");
  if (config_.queue_capacity < 1)
    throw std::invalid_argument("Server requires a non-empty queue");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

Server::~Server() { drain(); }

double Server::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<SessionId> Server::add_sessions(
    std::vector<std::unique_ptr<Session>> sessions,
    std::vector<std::unique_ptr<SessionBackend>> backends) {
  std::vector<SessionId> ids;
  ids.reserve(sessions.size());
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t cap = config_.max_sessions;
  if (cap != 0 && sessions_.size() + sessions.size() > cap)
    throw std::runtime_error("admission: session capacity " +
                             std::to_string(cap) + " reached (live=" +
                             std::to_string(sessions_.size()) +
                             ", requested=" + std::to_string(sessions.size()) +
                             ")");
  for (auto& backend : backends) backends_.push_back(std::move(backend));
  for (auto& session : sessions) {
    auto entry = std::make_shared<Entry>();
    entry->session = std::move(session);
    ids.push_back(next_id_);
    sessions_.emplace(next_id_++, std::move(entry));
  }
  return ids;
}

SessionId Server::open_session(const ops5::Program& program,
                               EngineConfig config) {
  // Engine construction (Rete compilation) happens on the caller's thread,
  // outside the server lock; so does every open_*'s.
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.push_back(std::make_unique<Session>(program, config));
  return add_sessions(std::move(sessions), {}).front();
}

std::vector<SessionId> Server::open_batch_sessions(const ops5::Program& program,
                                                   EngineConfig config,
                                                   std::uint32_t count) {
  if (count == 0)
    throw std::invalid_argument("open_batch_sessions: count must be >= 1");
  config.options.worlds = count;
  std::vector<std::unique_ptr<SessionBackend>> backends;
  backends.push_back(
      std::make_unique<world::BatchEngine>(program, config.options));
  std::vector<std::unique_ptr<Session>> sessions;
  add_slots(sessions, program, backends.back().get(), count);
  return add_sessions(std::move(sessions), std::move(backends));
}

std::vector<SessionId> Server::open_shard_sessions(
    const ops5::Program& program, EngineConfig config, std::uint32_t count,
    std::uint16_t shards, shard::TransportKind transport, std::uint16_t lanes,
    shard::KeylessPolicy keyless, bool overlap) {
  if (count == 0)
    throw std::invalid_argument("open_shard_sessions: count must be >= 1");
  if (lanes == 0 || lanes > count)
    throw std::invalid_argument(
        "open_shard_sessions: lanes must be in [1, count]");
  // Contiguous blocks: lane l serves sessions [l*per, ...), the last lane
  // takes the remainder. The SocketTransport forks in the ShardGroup
  // constructor.
  const std::uint32_t per = (count + lanes - 1) / lanes;
  std::vector<std::unique_ptr<SessionBackend>> backends;
  std::vector<std::unique_ptr<Session>> sessions;
  for (std::uint32_t begin = 0; begin < count; begin += per) {
    shard::ShardGroupConfig scfg;
    scfg.shards = shards;
    scfg.sessions = std::min(per, count - begin);
    scfg.transport = transport;
    scfg.keyless = keyless;
    scfg.overlap = overlap;
    backends.push_back(
        std::make_unique<shard::ShardGroup>(program, config.options, scfg));
    add_slots(sessions, program, backends.back().get(), scfg.sessions);
  }
  return add_sessions(std::move(sessions), std::move(backends));
}

bool Server::close_session(SessionId id) {
  std::shared_ptr<Entry> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    doomed = std::move(it->second);
    doomed->closed = true;  // requests still in its inbox answer `err`
    sessions_.erase(it);
  }
  // An in-flight request still holds a shared_ptr; the session dies when
  // the last holder drops it.
  std::lock_guard<std::mutex> busy(doomed->busy);
  return true;
}

std::size_t Server::session_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

std::future<Response> Server::submit(SessionId id, std::string line,
                                     Deadline deadline) {
  Item item;
  item.id = id;
  item.line = std::move(line);
  item.deadline = deadline;
  item.enqueue_us = now_us();
  std::future<Response> future = item.promise.get_future();
  std::shared_ptr<Entry> wake;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || queued_ >= config_.queue_capacity) {
      ++stats_.shed_overload;
      Response r{false,
                 draining_ ? std::string("overloaded server draining")
                           : "overloaded queue=" + std::to_string(queued_) +
                                 " cap=" +
                                 std::to_string(config_.queue_capacity)};
      r.enqueue_us = item.enqueue_us;
      r.complete_us = item.enqueue_us;
      item.promise.set_value(std::move(r));
      return future;
    }
    ++stats_.accepted;
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      ++stats_.completed;
      Response r{false, "no such session " + std::to_string(id)};
      r.enqueue_us = item.enqueue_us;
      r.complete_us = item.enqueue_us;
      item.promise.set_value(std::move(r));
      return future;
    }
    Entry& entry = *it->second;
    entry.inbox.push_back(std::move(item));
    ++queued_;
    if (!entry.scheduled) {
      entry.scheduled = true;
      ready_.push_back(it->second);
      wake = it->second;
    }
  }
  if (wake) work_cv_.notify_one();
  return future;
}

Response Server::call(SessionId id, std::string line, Deadline deadline) {
  return submit(id, std::move(line), deadline).get();
}

Session* Server::session(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second->session.get();
}

void Server::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stopped_ || !ready_.empty(); });
    if (ready_.empty()) return;  // stopped_ and drained
    // Take one request of one runnable session. The session stays
    // `scheduled` while it runs, so no other worker can start its next
    // request before this one completes.
    std::shared_ptr<Entry> entry = std::move(ready_.front());
    ready_.pop_front();
    Item item = std::move(entry->inbox.front());
    entry->inbox.pop_front();
    --queued_;
    ++in_flight_;
    const bool closed = entry->closed;
    lk.unlock();

    Response response;
    bool expired = false;
    if (closed) {
      response = {false, "no such session " + std::to_string(item.id)};
    } else if (std::chrono::steady_clock::now() > item.deadline) {
      response = {false, "deadline expired in queue"};
      expired = true;
    } else {
      std::lock_guard<std::mutex> busy(entry->busy);
      response = entry->session->execute(item.line, item.deadline);
    }
    response.enqueue_us = item.enqueue_us;
    response.complete_us = now_us();
    // Count the completion before resolving the promise, so a caller that
    // has its response also sees it in stats().
    lk.lock();
    if (expired) ++stats_.shed_deadline;
    ++stats_.completed;
    lk.unlock();
    item.promise.set_value(std::move(response));

    lk.lock();
    --in_flight_;
    // Requeue at the back: sessions take turns, one request each.
    if (entry->inbox.empty()) {
      entry->scheduled = false;
    } else {
      ready_.push_back(std::move(entry));
      work_cv_.notify_one();
    }
    if (queued_ == 0 && in_flight_ == 0) drain_cv_.notify_all();
  }
}

void Server::drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    draining_ = true;
    drain_cv_.wait(lk, [this] { return queued_ == 0 && in_flight_ == 0; });
    stopped_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace psme::serve
