#include "shard/shard.hpp"

#include "rr/digest.hpp"
#include "shard/partition.hpp"

namespace psme::shard {

ShardState::ShardState(const ops5::Program& program, const rete::Network& net,
                       const EngineOptions& options, const ShardConfig& cfg)
    : program_(program), net_(net), options_(options), cfg_(cfg) {
  if (cfg_.shards == 0 || cfg_.self >= cfg_.shards)
    throw std::invalid_argument("ShardState: self outside [0, shards)");
  if (cfg_.sessions == 0)
    throw std::invalid_argument("ShardState: need at least one session");
  // Shards drain their partition inline on one thread; the parallelism is
  // BETWEEN shards, so the per-shard match is the sequential kernel.
  options_.match_processes = 0;
  options_.memory = match::MemoryStrategy::Hash;
  plan_ = PartitionPlan::build(net_, cfg_.keyless, cfg_.shards);
  for (const auto& j : net_.joins()) join_by_id_.emplace(j->id, j.get());
  slices_.resize(cfg_.sessions);
}

ShardState::~ShardState() = default;

ShardState::Slice& ShardState::slice(std::uint32_t session) {
  if (session >= slices_.size())
    throw ProtocolError("session id out of range");
  auto& slot = slices_[session];
  if (!slot) {
    slot = std::make_unique<Slice>();
    world::init_world(slot->w, session, program_, options_, /*endpoints=*/1);
  }
  return *slot;
}

void ShardState::apply_delta(const WmDeltaFrame& f) {
  Slice& s = slice(f.session);
  match::Task root;
  root.kind = match::TaskKind::Root;
  root.sign = f.sign;
  root.world = f.session;
  if (f.sign > 0) {
    root.wme = s.w.wm->make_with_tag(f.tag, f.cls, f.fields);
  } else {
    const Wme* wme = s.w.wm->find(f.tag);
    if (!wme) throw ProtocolError("delta removes unknown timetag");
    root.wme = wme;
    // Deferred: the wme must stay resolvable for tokens forwarded later
    // in this cycle; the storage is retired at the Quiesce barrier.
    s.deferred_removes.push_back(wme);
  }
  s.w.inline_queue.push_back(root);
  touched_.push_back(&s);
}

void ShardState::apply_forward(const TaskFwdFrame& f) {
  Slice& s = slice(f.session);
  auto it = join_by_id_.find(f.join_id);
  if (it == join_by_id_.end()) throw ProtocolError("unknown join node id");
  const Token* tok = nullptr;
  for (const std::uint32_t tag : f.tags) {
    const Wme* wme = s.w.wm->find(tag);
    if (!wme) throw ProtocolError("forwarded token names unknown timetag");
    tok = s.w.arenas[0].make_token(tok, wme);
  }
  match::Task t;
  t.kind = match::TaskKind::JoinLeft;
  t.sign = f.sign;
  t.world = f.session;
  t.join = it->second;
  t.token = tok;
  s.w.inline_queue.push_back(t);
  touched_.push_back(&s);
}

void ShardState::price(const match::Task& t, const match::ActivationCost& c,
                       std::size_t emitted) {
  const sim::CostModel& m = cfg_.cost;
  sim::VTime vt = m.task_dispatch;
  switch (t.kind) {
    case match::TaskKind::Root:
      vt += m.root_charge(c, emitted);
      break;
    case match::TaskKind::JoinLeft:
    case match::TaskKind::JoinRight:
      vt += m.join_update_charge(c, t.sign) + m.join_probe_charge(c);
      break;
    case match::TaskKind::Terminal:
      vt += m.terminal_update;
      break;
  }
  vtime_ += vt;
  batch_vtime_ += vt;
}

void ShardState::route(Slice& s, const match::Task& src,
                       std::vector<match::Task>& out, BatchWriter& reply) {
  for (const match::Task& t : out) {
    if (src.kind == match::TaskKind::Root) {
      if (t.kind != match::TaskKind::Terminal && plan_.replicates(t.join)) {
        // Replicated keyless node. The wme-side write applies to EVERY
        // shard's replica (the delta already reached all of them, so no
        // extra frames — only duplicated compute); a first-CE token
        // spreads by (node seed, timetags) so the left memory partitions
        // instead of collapsing onto the node-seed owner.
        if (t.kind == match::TaskKind::JoinRight) {
          s.w.inline_queue.push_back(t);
          ++replicated_keeps_;
        } else if (replica_left_owner(t, cfg_.shards) == cfg_.self) {
          s.w.inline_queue.push_back(t);
        } else {
          ++dropped_;
        }
        continue;
      }
      // Every shard ran this Root; each keeps only its own partition.
      if (owner_of(t, cfg_.shards) == cfg_.self) {
        s.w.inline_queue.push_back(t);
      } else {
        ++dropped_;
      }
      continue;
    }
    if (t.kind == match::TaskKind::Terminal) {
      // Join-emitted terminal: the final join's key placed the whole
      // instantiation here, so the local conflict set owns it.
      s.w.inline_queue.push_back(t);
      continue;
    }
    if (plan_.replicates(t.join)) {
      // Probe locality: the node's full wme-side memory is right here,
      // so the token never leaves the shard that produced it. Its later
      // retraction is emitted by the same deterministic upstream state,
      // so + and - of one token always meet on one shard.
      s.w.inline_queue.push_back(t);
      ++replicated_keeps_;
      continue;
    }
    const std::uint16_t owner = owner_of(t, cfg_.shards);
    if (owner == cfg_.self) {
      s.w.inline_queue.push_back(t);
      continue;
    }
    TaskFwdFrame f;
    f.session = s.w.id;
    f.join_id = t.join->id;
    f.dst = owner;
    f.sign = t.sign;
    f.tags.reserve(t.token->len);
    for (std::uint32_t i = 0; i < t.token->len; ++i)
      f.tags.push_back(t.token->wme_at(i)->timetag);
    reply.task_fwd(f);
    ++forwarded_;
  }
}

void ShardState::drain(Slice& s, BatchWriter& reply) {
  match::MatchContext ctx;
  ctx.strategy = match::MemoryStrategy::Hash;
  ctx.arena = &s.w.arenas[0];
  ctx.stats = &s.w.stats.match;
  // Flat FIFO as in match::drain_fifo; route() appends to the queue, so
  // the task is copied out first.
  for (std::size_t head = 0; head < s.w.inline_queue.size(); ++head) {
    const match::Task task = s.w.inline_queue[head];
    s.w.emit_buf.clear();
    match::ActivationCost c;
    match::process_task(ctx, s.w.ctx, net_, task, s.w.emit_buf, &c);
    price(task, c, s.w.emit_buf.size());
    route(s, task, s.w.emit_buf, reply);
    s.w.stats.match.tasks_executed += 1;
    ++tasks_;
    ++batch_tasks_;
  }
  s.w.inline_queue.clear();
}

std::string ShardState::handle(const std::string& bytes) {
  const Batch b = decode_batch(bytes);
  BatchWriter reply(cfg_.self, b.src);
  batch_tasks_ = 0;
  batch_vtime_ = 0;
  touched_.clear();
  // Drains queued deltas/forwards before any frame that reads match
  // state. The coordinator phases those into separate batches anyway;
  // this keeps a mixed batch correct rather than order-sensitive.
  auto flush = [&] {
    for (Slice* s : touched_) drain(*s, reply);
    touched_.clear();
  };
  for (const Frame& f : b.frames) {
    switch (f.type) {
      case FrameType::Hello:
        if (f.hello.fingerprint != cfg_.fingerprint)
          throw ProtocolError("hello: program fingerprint mismatch");
        if (f.hello.shards != cfg_.shards || f.hello.self != cfg_.self ||
            f.hello.sessions != cfg_.sessions)
          throw ProtocolError("hello: topology mismatch");
        break;
      case FrameType::WmDelta:
        apply_delta(f.delta);
        break;
      case FrameType::TaskFwd:
        apply_forward(f.fwd);
        break;
      case FrameType::Quiesce:
        flush();
        for (auto& slot : slices_) {
          if (!slot) continue;
          for (const Wme* wme : slot->deferred_removes)
            slot->w.wm->remove(wme);
          slot->deferred_removes.clear();
          slot->w.wm->collect();
        }
        break;
      case FrameType::PeekQuery: {
        flush();
        Slice& s = slice(f.session.session);
        InstFrame p;
        p.session = f.session.session;
        if (auto inst = s.w.cs->peek(options_.strategy)) {
          p.present = true;
          p.prod_index = inst->prod_index;
          for (const TimeTag t : inst->tags_in_order())
            p.tags.push_back(t);
        } else {
          p.present = false;
        }
        reply.propose(p);
        break;
      }
      case FrameType::Fire: {
        Slice& s = slice(f.inst.session);
        const std::vector<TimeTag> tags(f.inst.tags.begin(),
                                        f.inst.tags.end());
        if (!s.w.cs->mark_fired(f.inst.prod_index, tags))
          throw ProtocolError("fire: no matching live instantiation");
        break;
      }
      case FrameType::MarkFired: {
        // Checkpoint-restore refraction: broadcast; exactly the owner
        // shard finds the instantiation, everyone else ignores it.
        Slice& s = slice(f.inst.session);
        const std::vector<TimeTag> tags(f.inst.tags.begin(),
                                        f.inst.tags.end());
        s.w.cs->mark_fired(f.inst.prod_index, tags);
        break;
      }
      case FrameType::CsQuery: {
        flush();
        Slice& s = slice(f.session.session);
        CsHashesFrame h;
        h.session = f.session.session;
        h.hashes = rr::cs_entry_hashes(*s.w.cs);
        reply.cs_hashes(h);
        break;
      }
      case FrameType::FiredQuery: {
        flush();
        Slice& s = slice(f.session.session);
        FiredReplyFrame fr;
        fr.session = f.session.session;
        for (const Instantiation& inst : s.w.cs->snapshot()) {
          if (!inst.fired) continue;
          InstFrame rec;
          rec.session = f.session.session;
          rec.prod_index = inst.prod_index;
          for (const TimeTag t : inst.tags_in_order())
            rec.tags.push_back(t);
          fr.fired.push_back(std::move(rec));
        }
        reply.fired_reply(fr);
        break;
      }
      case FrameType::ResetSession: {
        const std::uint32_t id = f.session.session;
        if (id >= slices_.size())
          throw ProtocolError("session id out of range");
        if (auto& slot = slices_[id]) {
          world::reset_world_state(slot->w, program_, options_,
                                   /*endpoints=*/1);
          slot->deferred_removes.clear();
        }
        break;
      }
      case FrameType::StatsQuery: {
        flush();
        StatsReplyFrame sr;
        sr.tasks = tasks_;
        sr.forwarded = forwarded_;
        sr.dropped = dropped_;
        sr.vtime = vtime_;
        sr.replicated_keeps = replicated_keeps_;
        reply.stats_reply(sr);
        break;
      }
      case FrameType::FlushMark:
        // Exchange credit handshake: drain everything queued
        // ahead of the mark, then echo it — the ack tells the
        // coordinator this batch's forwards are all in the reply and
        // returns its send credit.
        if (f.flush.epoch <= last_epoch_)
          throw ProtocolError("flush mark epoch not increasing");
        last_epoch_ = f.flush.epoch;
        flush();
        reply.flush_ack(f.flush);
        break;
      case FrameType::Shutdown:
        done_ = true;
        break;
      default:
        throw ProtocolError("frame not valid coordinator->shard");
    }
  }
  flush();
  reply.batch_done(
      {batch_vtime_, static_cast<std::uint32_t>(batch_tasks_)});
  return reply.take();
}

}  // namespace psme::shard
