// Transports carrying psme.shard.v1 batches (docs/sharding.md).
//
// The coordinator speaks strict request/reply to each shard: send(shard,
// batch) then recv(shard) for its reply. Sends to several shards may be
// in flight at once (send all, then collect all), which is what makes
// shard-level parallelism real on both transports. The coordinator's
// exchange (shard_group.cpp) keeps this one-request-per-pipe invariant:
// its FlushMark credit window is exactly one marked batch in flight per
// shard, so neither side ever writes a second message into a pipe whose
// first is unconsumed (a writer-writer deadlock risk on a full
// socketpair) and recv order stays deterministic:
//
//  - InProcTransport: one thread per shard inside this process; batches
//    move through mutex+cv mailboxes. The shard's entire mutable state is
//    touched only by its own thread — the bytes on the mailbox are the
//    whole interface, exactly as if a wire separated them.
//  - SocketTransport: one forked child process per shard over a
//    socketpair, [u32 length]-framed. fork() after the shared compiled
//    image is built means the network/bytecode/symbol ids are inherited
//    copy-on-write and stay pointer-identical in the child — true
//    shared-nothing execution with zero serialization of the program.
//
// Both transports move the SAME bytes; the equivalence tests run both to
// prove the protocol, not the address space, defines behavior.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "shard/shard.hpp"

namespace psme::shard {

enum class TransportKind : std::uint8_t { InProc, Socket };

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("shard transport: " + what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;
  // Enqueues one request batch for `shard`. Each send must be matched by
  // exactly one recv for the same shard before the next send to it.
  virtual void send(std::uint16_t shard, std::string bytes) = 0;
  // Blocks for the shard's reply batch.
  virtual std::string recv(std::uint16_t shard) = 0;
  // Stops the shard executors. The coordinator sends Shutdown frames
  // first so each shard exits its loop cleanly; this then reaps the
  // thread/process.
  virtual void stop() = 0;
};

// Shards as threads in this process.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::vector<ShardState*> shards);
  ~InProcTransport() override;

  void send(std::uint16_t shard, std::string bytes) override;
  std::string recv(std::uint16_t shard) override;
  void stop() override;

 private:
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::string> requests;
    std::deque<std::string> replies;
    bool stop = false;
    std::thread thread;
  };
  void serve(ShardState* shard, Lane* lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
  bool stopped_ = false;
};

// Shards as forked child processes over socketpairs. Fork happens in the
// constructor: create the transport before starting unrelated threads.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(std::vector<ShardState*> shards);
  ~SocketTransport() override;

  void send(std::uint16_t shard, std::string bytes) override;
  std::string recv(std::uint16_t shard) override;
  void stop() override;

 private:
  struct Peer {
    int fd = -1;
    int pid = -1;
  };
  std::vector<Peer> peers_;
  bool stopped_ = false;
};

}  // namespace psme::shard
