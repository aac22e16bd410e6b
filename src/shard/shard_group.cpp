#include "shard/shard_group.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "rr/digest.hpp"
#include "serve/checkpoint.hpp"
#include "shard/partition.hpp"

namespace psme::shard {

ShardGroup::ShardGroup(const ops5::Program& program, EngineOptions options,
                       ShardGroupConfig cfg)
    : image_(program), options_(options), cfg_(cfg), cr_(program) {
  if (cfg_.shards == 0)
    throw std::invalid_argument("ShardGroup: need at least one shard");
  if (cfg_.sessions == 0)
    throw std::invalid_argument("ShardGroup: need at least one session");
  if (options_.rr_record || options_.rr_replay)
    throw std::invalid_argument(
        "ShardGroup: record/replay hooks are single-engine; use "
        "set_digest_capture for per-cycle digests");
  sessions_.resize(cfg_.sessions);
  for (std::uint32_t i = 0; i < cfg_.sessions; ++i) {
    sessions_[i] = std::make_unique<Session>();
    sessions_[i]->reset(program, options_.max_cycles);
    sessions_[i]->id = i;
    sessions_[i]->watch_prefix = "[s" + std::to_string(i) + "] ";
  }
  out_.resize(cfg_.shards);
  epoch_.resize(cfg_.shards, 0);
  stats_.replicated_nodes =
      PartitionPlan::build(*image_.network, cfg_.keyless, cfg_.shards)
          .replicated_nodes;

  ShardConfig sc;
  sc.shards = cfg_.shards;
  sc.sessions = cfg_.sessions;
  sc.fingerprint = serve::Checkpoint::fingerprint_of(program);
  sc.cost = cfg_.cost;
  sc.keyless = cfg_.keyless;
  std::vector<ShardState*> raw;
  for (std::uint16_t k = 0; k < cfg_.shards; ++k) {
    sc.self = k;
    shards_.push_back(
        std::make_unique<ShardState>(program, *image_.network, options_, sc));
    raw.push_back(shards_.back().get());
  }
  // SocketTransport forks here, inheriting the compiled image COW.
  if (cfg_.transport == TransportKind::Socket)
    transport_ = std::make_unique<SocketTransport>(raw);
  else
    transport_ = std::make_unique<InProcTransport>(raw);

  // Hello handshake: every shard checks fingerprint + topology.
  for (std::uint16_t k = 0; k < cfg_.shards; ++k) {
    HelloFrame h;
    h.fingerprint = sc.fingerprint;
    h.shards = cfg_.shards;
    h.self = k;
    h.sessions = cfg_.sessions;
    to(k).hello(h);
  }
  exchange(/*priced=*/false);
}

ShardGroup::~ShardGroup() {
  try {
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).shutdown();
    exchange(/*priced=*/false);
  } catch (...) {
    // A dead shard process already ended the conversation; stop() reaps.
  }
  transport_->stop();
}

ShardGroup::Session& ShardGroup::session(std::uint32_t id) {
  if (id >= sessions_.size())
    throw std::invalid_argument("ShardGroup: session id out of range");
  return *sessions_[id];
}

const ShardGroup::Session& ShardGroup::session(std::uint32_t id) const {
  if (id >= sessions_.size())
    throw std::invalid_argument("ShardGroup: session id out of range");
  return *sessions_[id];
}

BatchWriter& ShardGroup::to(std::uint16_t s) {
  auto& slot = out_.at(s);
  if (!slot) slot = std::make_unique<BatchWriter>(kCoordinator, s);
  return *slot;
}

void ShardGroup::exchange(
    bool priced,
    const std::function<void(std::uint16_t, const Frame&)>& on_frame) {
  // Priced traffic takes the overlapped path when configured; control
  // traffic (handshake, digests, checkpoints, stats) is single-round and
  // stays on the synchronous loop below, unmarked.
  if (priced && cfg_.overlap) {
    exchange_overlapped(on_frame);
    return;
  }
  for (;;) {
    std::vector<std::uint16_t> contacted;
    std::vector<std::size_t> sent_bytes;
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) {
      if (!out_[k] || out_[k]->empty()) {
        out_[k].reset();
        continue;
      }
      stats_.frames += out_[k]->frames();
      std::string bytes = out_[k]->take();
      out_[k].reset();
      stats_.batches += 1;
      stats_.bytes_sent += bytes.size();
      contacted.push_back(k);
      sent_bytes.push_back(bytes.size());
      transport_->send(k, std::move(bytes));
    }
    if (contacted.empty()) return;
    // Replies are collected in shard order — determinism does not depend
    // on which shard finishes first.
    sim::VTime round_max = 0;
    for (std::size_t i = 0; i < contacted.size(); ++i) {
      const std::uint16_t k = contacted[i];
      const std::string reply_bytes = transport_->recv(k);
      stats_.batches += 1;
      stats_.bytes_received += reply_bytes.size();
      const Batch reply = decode_batch(reply_bytes);
      if (reply.src != k || reply.dst != kCoordinator)
        throw ProtocolError("reply batch from unexpected endpoint");
      sim::VTime shard_compute = 0;
      for (const Frame& f : reply.frames) {
        stats_.frames += 1;
        switch (f.type) {
          case FrameType::TaskFwd:
            // Hub-and-spoke relay: re-batch toward the owner shard.
            if (f.fwd.dst >= cfg_.shards)
              throw ProtocolError("forward addressed to unknown shard");
            to(f.fwd.dst).task_fwd(f.fwd);
            stats_.forwards += 1;
            break;
          case FrameType::BatchDone:
            shard_compute = f.done.vtime_delta;
            break;
          default:
            if (on_frame) on_frame(k, f);
            break;
        }
      }
      if (priced) {
        const sim::VTime req = cfg_.cost.batch_cost(sent_bytes[i]);
        const sim::VTime rep = cfg_.cost.batch_cost(reply_bytes.size());
        round_max = std::max(round_max, req + shard_compute + rep);
        stats_.compute_vtime += shard_compute;
        stats_.comm_vtime += req + rep;
      }
    }
    if (priced) {
      stats_.makespan_vtime += round_max;
      stats_.rounds += 1;
    }
  }
}

void ShardGroup::exchange_overlapped(
    const std::function<void(std::uint16_t, const Frame&)>& on_frame,
    const std::function<bool()>& on_drained) {
  // Credit window: one marked batch in flight per shard — the FlushAck
  // returns the credit — preserving the transports' one-request-per-pipe
  // invariant. The overlap is across shards: while one shard's frames
  // are in flight the others compute, and relayed forwards leave the
  // moment the carrying reply arrives (eager send toward any shard whose
  // credit is free) instead of waiting out an end-of-round barrier.
  struct InFlight {
    std::uint32_t epoch = 0;
    sim::VTime req_cost = 0;
    bool active = false;
  };
  std::vector<InFlight> inflight(cfg_.shards);
  const std::uint64_t cycle = ++exchange_cycle_;

  auto send_ready = [&](std::uint16_t k) {
    if (inflight[k].active || !out_[k] || out_[k]->empty()) return;
    FlushFrame m;
    m.cycle = cycle;
    m.epoch = ++epoch_[k];
    out_[k]->flush_mark(m);
    stats_.frames += out_[k]->frames();
    std::string bytes = out_[k]->take();
    out_[k].reset();
    stats_.batches += 1;
    stats_.bytes_sent += bytes.size();
    inflight[k] = {m.epoch, cfg_.cost.batch_cost(bytes.size()), true};
    transport_->send(k, std::move(bytes));
  };

  for (;;) {
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) send_ready(k);
    bool any = false;
    for (const InFlight& f : inflight) any = any || f.active;
    if (!any) {
      // Drained. The caller may fold a finalizer (the quiesce barrier)
      // into this same exchange instead of paying a separate one.
      if (on_drained && on_drained()) continue;
      return;
    }
    // One sweep: one reply from each shard with a batch in flight, in
    // shard order — determinism never depends on completion order.
    sim::VTime sweep_overlapped = 0;
    sim::VTime sweep_serial = 0;
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) {
      if (!inflight[k].active) continue;
      const InFlight sent = inflight[k];
      const std::string reply_bytes = transport_->recv(k);
      inflight[k].active = false;
      stats_.batches += 1;
      stats_.bytes_received += reply_bytes.size();
      const Batch reply = decode_batch(reply_bytes);
      if (reply.src != k || reply.dst != kCoordinator)
        throw ProtocolError("reply batch from unexpected endpoint");
      sim::VTime shard_compute = 0;
      bool acked = false;
      for (const Frame& f : reply.frames) {
        stats_.frames += 1;
        switch (f.type) {
          case FrameType::TaskFwd:
            if (f.fwd.dst >= cfg_.shards)
              throw ProtocolError("forward addressed to unknown shard");
            to(f.fwd.dst).task_fwd(f.fwd);
            stats_.forwards += 1;
            break;
          case FrameType::BatchDone:
            shard_compute = f.done.vtime_delta;
            break;
          case FrameType::FlushAck:
            if (f.flush.cycle != cycle || f.flush.epoch != sent.epoch)
              throw ProtocolError("flush ack does not match its mark");
            acked = true;
            break;
          default:
            if (on_frame) on_frame(k, f);
            break;
        }
      }
      if (!acked)
        throw ProtocolError("overlapped reply missing its flush ack");
      const sim::VTime comm =
          sent.req_cost + cfg_.cost.batch_cost(reply_bytes.size());
      stats_.compute_vtime += shard_compute;
      stats_.comm_vtime += comm;
      sweep_overlapped =
          std::max(sweep_overlapped,
                   cfg_.cost.path_cost(shard_compute, comm, true));
      sweep_serial = std::max(
          sweep_serial, cfg_.cost.path_cost(shard_compute, comm, false));
      // Eager relay: anything this reply produced leaves now if the
      // destination's credit is free — a later shard in this sweep sees
      // it this sweep, not behind a barrier.
      for (std::uint16_t k2 = 0; k2 < cfg_.shards; ++k2) send_ready(k2);
    }
    stats_.makespan_vtime += sweep_overlapped;
    stats_.overlap_saved_vtime += sweep_serial - sweep_overlapped;
    stats_.rounds += 1;
    stats_.overlap_rounds += 1;
  }
}

const Wme* ShardGroup::make(std::uint32_t si, std::string_view wme_literal) {
  std::lock_guard<std::mutex> lk(mu_);
  return session(si).make(wme_literal);
}

const Wme* ShardGroup::make(
    std::uint32_t si, SymbolId cls,
    const std::vector<std::pair<SymbolId, Value>>& fields) {
  std::lock_guard<std::mutex> lk(mu_);
  return session(si).make(cls, fields);
}

void ShardGroup::remove(std::uint32_t si, TimeTag tag) {
  std::lock_guard<std::mutex> lk(mu_);
  session(si).remove(tag);
}

void ShardGroup::set_max_cycles(std::uint32_t si, std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  session(si).max_cycles = n;
}

void ShardGroup::flush_pending(Session& s) {
  s.submit_pending([&](const Wme* wme, std::int8_t sign) {
    WmDeltaFrame f;
    f.session = s.id;
    f.sign = sign;
    f.tag = wme->timetag;
    if (sign > 0) {
      f.cls = wme->cls;
      f.fields = wme->fields;
    }
    // Broadcast: every shard runs the alpha net and keeps its partition.
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).wm_delta(f);
    stats_.deltas += 1;
  });
}

void ShardGroup::match_round(
    const std::vector<std::uint32_t>& refraction_for) {
  // Quiesce barrier (+ checkpoint-restore refraction: the conflict sets
  // are complete once traffic drains, so the owner shard can find each
  // instantiation).
  auto enqueue_quiesce = [&] {
    for (const std::uint32_t id : refraction_for) {
      Session& s = session(id);
      for (const FiringRecord& rec : s.restored_fired) {
        InstFrame f;
        f.session = id;
        f.prod_index = rec.prod_index;
        f.tags.assign(rec.timetags.begin(), rec.timetags.end());
        for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).mark_fired(f);
      }
      s.restored_fired.clear();
    }
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).quiesce();
  };
  if (cfg_.overlap) {
    // Deltas, forwards AND the quiesce barrier ride one overlapped
    // exchange: when traffic drains, the barrier frames are appended and
    // confirmed under the same credit/ack discipline.
    bool quiesced = false;
    exchange_overlapped(nullptr, [&]() -> bool {
      if (quiesced) return false;
      quiesced = true;
      enqueue_quiesce();
      return true;
    });
    return;
  }
  // Deltas propagate and forwarded join activations relay until drained.
  exchange(/*priced=*/true);
  enqueue_quiesce();
  exchange(/*priced=*/true);
}

void ShardGroup::capture_digests(const std::vector<std::uint32_t>& ids) {
  if (!digest_capture_) return;
  std::vector<std::uint32_t> wanted;
  for (const std::uint32_t id : ids) {
    Session& s = session(id);
    if (!s.digests.empty() && s.digests.back().cycle == s.stats.cycles)
      continue;
    wanted.push_back(id);
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).cs_query(id);
  }
  if (wanted.empty()) return;
  std::unordered_map<std::uint32_t, std::vector<std::vector<std::uint64_t>>>
      per_shard;
  for (const std::uint32_t id : wanted)
    per_shard[id].resize(cfg_.shards);
  exchange(/*priced=*/false, [&](std::uint16_t k, const Frame& f) {
    if (f.type != FrameType::CsHashes)
      throw ProtocolError("unexpected reply to CsQuery");
    per_shard.at(f.cs.session).at(k) = f.cs.hashes;
  });
  for (const std::uint32_t id : wanted) {
    Session& s = session(id);
    auto& shards = per_shard.at(id);
    std::vector<std::uint64_t> merged;
    for (const auto& h : shards) merged.insert(merged.end(), h.begin(),
                                               h.end());
    // The partition splits the conflict set into disjoint entry sets, so
    // the sorted union hashes identically to a single engine's.
    std::sort(merged.begin(), merged.end());
    s.digests.push_back({s.stats.cycles, rr::wm_digest(*s.wm),
                         rr::combine_hashes(merged)});
    if (cs_detail_)
      s.cs_detail.push_back({s.stats.cycles, std::move(shards)});
  }
}

std::vector<std::uint32_t> ShardGroup::fire_phase(
    const std::vector<std::uint32_t>& candidates) {
  std::vector<std::uint32_t> fired;
  // The Control's stop check, then one batched peek.
  std::vector<std::uint32_t> peeking;
  for (const std::uint32_t id : candidates) {
    Session& s = session(id);
    if (!s.live) continue;
    if (s.stopped()) {
      s.live = false;
      continue;
    }
    for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).peek_query(id);
    peeking.push_back(id);
  }
  if (peeking.empty()) return fired;

  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint16_t, InstFrame>>>
      proposals;
  exchange(/*priced=*/true, [&](std::uint16_t k, const Frame& f) {
    if (f.type != FrameType::Propose)
      throw ProtocolError("unexpected reply to PeekQuery");
    if (f.inst.present) proposals[f.inst.session].emplace_back(k, f.inst);
  });

  std::vector<std::pair<std::uint32_t, Instantiation>> winners;
  for (const std::uint32_t id : peeking) {
    Session& s = session(id);
    auto it = proposals.find(id);
    if (it == proposals.end() || it->second.empty()) {
      s.last_reason = StopReason::EmptyConflictSet;
      s.live = false;
      continue;
    }
    // Reconstruct each proposal against the authoritative WM and merge
    // under the exact dominates() order a single engine would use. The
    // proposals are distinct instantiations (an instantiation lives on
    // exactly one shard), so the total order picks a unique winner.
    const std::pair<std::uint16_t, InstFrame>* best = nullptr;
    Instantiation best_inst;
    for (const auto& cand : it->second) {
      Instantiation inst;
      inst.prod_index = cand.second.prod_index;
      inst.wmes.reserve(cand.second.tags.size());
      for (const std::uint64_t tag : cand.second.tags) {
        const Wme* wme = s.wm->find(tag);
        if (!wme)
          throw ProtocolError("proposal names a dead timetag");
        inst.wmes.push_back(wme);
      }
      inst.tags_desc.assign(cand.second.tags.begin(),
                            cand.second.tags.end());
      std::sort(inst.tags_desc.begin(), inst.tags_desc.end(),
                std::greater<TimeTag>());
      if (!best || cr_.dominates(inst, best_inst, options_.strategy)) {
        best = &cand;
        best_inst = std::move(inst);
      }
    }
    to(best->first).fire(best->second);
    winners.emplace_back(id, std::move(best_inst));
    fired.push_back(id);
  }
  // Refraction lands on the winners' shards before any new deltas move.
  exchange(/*priced=*/true);

  // Act phase: the coordinator's Control records the firing and runs the
  // RHS; its changes queue as the next round's deltas.
  for (const auto& [id, inst] : winners) {
    Session& s = session(id);
    s.fire(image_, options_, inst, [&s](const Wme* wme, std::int8_t sign) {
      s.pending.emplace_back(wme, sign);
    });
  }
  return fired;
}

void ShardGroup::run_all() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::uint32_t> all;
  all.reserve(sessions_.size());
  for (std::uint32_t i = 0; i < sessions_.size(); ++i) {
    Session& s = session(i);
    s.live = true;
    flush_pending(s);
    all.push_back(i);
  }
  match_round(/*refraction_for=*/all);
  for (const std::uint32_t i : all) session(i).wm->collect();
  capture_digests(all);
  for (;;) {
    const std::vector<std::uint32_t> fired = fire_phase(all);
    if (fired.empty()) break;
    for (const std::uint32_t i : fired) flush_pending(session(i));
    match_round({});
    for (const std::uint32_t i : fired) session(i).wm->collect();
    capture_digests(fired);
  }
}

RunResult ShardGroup::run_session(std::uint32_t si) {
  std::lock_guard<std::mutex> lk(mu_);
  run_session_locked(si);
  return session(si).result();
}

void ShardGroup::run_session_locked(std::uint32_t si) {
  Session& s = session(si);
  flush_pending(s);
  match_round(/*refraction_for=*/{si});
  s.wm->collect();
  capture_digests({si});
  for (;;) {
    s.live = true;
    const std::vector<std::uint32_t> fired = fire_phase({si});
    if (fired.empty()) break;
    flush_pending(s);
    match_round({});
    s.wm->collect();
    capture_digests({si});
  }
}

const Control& ShardGroup::control(std::uint32_t si) const {
  std::lock_guard<std::mutex> lk(mu_);
  return session(si);
}

const std::vector<world::World::DigestRow>& ShardGroup::digests(
    std::uint32_t si) const {
  std::lock_guard<std::mutex> lk(mu_);
  return session(si).digests;
}

const std::vector<ShardGroup::CsDetailRow>& ShardGroup::cs_detail(
    std::uint32_t si) const {
  std::lock_guard<std::mutex> lk(mu_);
  return session(si).cs_detail;
}

EngineSnapshot ShardGroup::snapshot_session(std::uint32_t si) {
  std::lock_guard<std::mutex> lk(mu_);
  // The fired (refraction) set lives on the owning shards.
  std::vector<FiringRecord> fired;
  for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).fired_query(si);
  exchange(/*priced=*/false, [&](std::uint16_t, const Frame& f) {
    if (f.type != FrameType::FiredReply)
      throw ProtocolError("unexpected reply to FiredQuery");
    for (const InstFrame& inst : f.fired.fired) {
      FiringRecord rec;
      rec.prod_index = inst.prod_index;
      rec.timetags.assign(inst.tags.begin(), inst.tags.end());
      fired.push_back(std::move(rec));
    }
  });
  return session(si).snapshot(std::move(fired));
}

void ShardGroup::reset_session(std::uint32_t si) {
  std::lock_guard<std::mutex> lk(mu_);
  Session& s = session(si);
  for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).reset_session(si);
  exchange(/*priced=*/false);
  s.reset(image_.program, options_.max_cycles);
  s.live = false;
  s.digests.clear();
  s.cs_detail.clear();
}

void ShardGroup::restore_session(std::uint32_t si,
                                 const EngineSnapshot& snap) {
  std::lock_guard<std::mutex> lk(mu_);
  session(si).restore(snap);
}

GroupStats ShardGroup::group_stats_locked() {
  stats_.tasks = 0;
  stats_.dropped = 0;
  stats_.replicated_keeps = 0;
  for (std::uint16_t k = 0; k < cfg_.shards; ++k) to(k).stats_query();
  exchange(/*priced=*/false, [&](std::uint16_t, const Frame& f) {
    if (f.type != FrameType::StatsReply)
      throw ProtocolError("unexpected reply to StatsQuery");
    stats_.tasks += f.stats.tasks;
    stats_.dropped += f.stats.dropped;
    stats_.replicated_keeps += f.stats.replicated_keeps;
  });
  return stats_;
}

GroupStats ShardGroup::group_stats() {
  std::lock_guard<std::mutex> lk(mu_);
  return group_stats_locked();
}

void ShardGroup::export_obs(obs::Registry& registry) {
  std::lock_guard<std::mutex> lk(mu_);
  const GroupStats gs = group_stats_locked();
  using obs::MetricDesc;
  using obs::MetricKind;
  auto c = [](const char* name, const char* unit, const char* help) {
    return MetricDesc{name, unit, help, "", MetricKind::Counter};
  };
  auto g = [](const char* name, const char* unit, const char* help) {
    return MetricDesc{name, unit, help, "", MetricKind::Gauge};
  };
  registry.gauge(g("psme.shard.shards", "shards",
                   "engine shards in this group")).set(cfg_.shards);
  registry.gauge(g("psme.shard.sessions", "sessions",
                   "sessions partitioned across the group")).set(
      cfg_.sessions);
  registry.counter(c("psme.shard.batches", "batches",
                     "psme.shard.v1 batches moved (requests + replies)"))
      .add(0, gs.batches);
  registry.counter(c("psme.shard.frames", "frames",
                     "frames inside those batches"))
      .add(0, gs.frames);
  registry.counter(c("psme.shard.bytes_sent", "bytes",
                     "batch bytes coordinator -> shards"))
      .add(0, gs.bytes_sent);
  registry.counter(c("psme.shard.bytes_received", "bytes",
                     "batch bytes shards -> coordinator"))
      .add(0, gs.bytes_received);
  registry.counter(c("psme.shard.forwards", "frames",
                     "cross-shard join activations relayed hub-and-spoke"))
      .add(0, gs.forwards);
  registry.counter(c("psme.shard.deltas", "frames",
                     "wm deltas broadcast to the shards"))
      .add(0, gs.deltas);
  registry.counter(c("psme.shard.rounds", "rounds",
                     "priced exchange rounds (interconnect makespans)"))
      .add(0, gs.rounds);
  registry.counter(c("psme.shard.tasks", "tasks",
                     "match tasks executed across all shards"))
      .add(0, gs.tasks);
  registry.counter(c("psme.shard.dropped", "tasks",
                     "root emissions discarded as another shard's"))
      .add(0, gs.dropped);
  registry.counter(c("psme.shard.vtime.compute", "instructions",
                     "modeled shard compute (CostModel)"))
      .add(0, gs.compute_vtime);
  registry.counter(c("psme.shard.vtime.comm", "instructions",
                     "modeled interconnect cost (batch_cost both ways)"))
      .add(0, gs.comm_vtime);
  registry.counter(c("psme.shard.vtime.makespan", "instructions",
                     "sum over rounds of the slowest shard's path"))
      .add(0, gs.makespan_vtime);
  registry.counter(c("psme.shard.overlap.rounds", "rounds",
                     "priced rounds run by the overlapped exchange"))
      .add(0, gs.overlap_rounds);
  registry.counter(c("psme.shard.overlap.saved_vtime", "instructions",
                     "idle-wait vtime the overlap hid vs a sync barrier"))
      .add(0, gs.overlap_saved_vtime);
  registry.gauge(g("psme.shard.replicated_nodes", "nodes",
                   "keyless join nodes running replicated")).set(
      static_cast<std::int64_t>(gs.replicated_nodes));
  registry.counter(c("psme.shard.replicated_keeps", "tasks",
                     "tasks kept local by keyless replication"))
      .add(0, gs.replicated_keeps);
}

}  // namespace psme::shard
