#include "match/kernel.hpp"

#include "obs/metrics.hpp"

namespace psme::match {
namespace {

// Table 4-2 accounting: tokens examined in the opposite memory, counted
// only for non-empty probes, plus the per-probe distribution when an
// observer is attached.
inline void count_opp_examined(MatchStats& stats, int si,
                               std::uint32_t examined) {
  if (examined == 0) return;
  stats.opp_examined[si] += examined;
  stats.opp_activations[si] += 1;
  if (stats.opp_chain_hist[si]) stats.opp_chain_hist[si]->record(examined);
}

// Physical bucket walk length (fast slot + chain, prefilter misses
// included) — the cache-line traffic of one bucket scan.
inline void count_bucket_chain(MatchStats& stats, std::uint32_t examined) {
  if (examined == 0) return;
  if (stats.bucket_chain_hist) stats.bucket_chain_hist->record(examined);
}

// splitmix64-style finalizer per mixed value: two multiply/xor-shift
// rounds, so single-slot keys still spread over the whole line space.
inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 29;
  return h;
}

// Do the left token and right wme satisfy the join's variable tests? A
// straight walk over the node's compiled test arrays: equality tests
// first (the hashed key), then the non-equality predicates.
bool join_tests_pass(const rete::JoinNode* j, const Token* t, const Wme* w) {
  for (const rete::EqTest& eq : j->eq_tests) {
    if (!(t->wme_at(eq.tok_pos)->field(eq.tok_slot) == w->field(eq.wme_slot)))
      return false;
  }
  for (const rete::BetaPred& p : j->preds) {
    if (!ops5::eval_pred(p.op, w->field(p.wme_slot),
                         t->wme_at(p.tok_pos)->field(p.tok_slot)))
      return false;
  }
  return true;
}

struct BucketPair {
  Bucket* own;
  Bucket* opp;
};

BucketPair resolve_buckets(MatchContext& ctx, WorldContext& world,
                           const Task& task, std::uint64_t hash) {
  if (ctx.strategy == MemoryStrategy::Hash) {
    Bucket& l = world.left_table->bucket(hash);
    Bucket& r = world.right_table->bucket(hash);
    return task.side() == Side::Left ? BucketPair{&l, &r} : BucketPair{&r, &l};
  }
  Bucket& l = world.list_mems->at(task.join->left_mem);
  Bucket& r = world.list_mems->at(task.join->right_mem);
  return task.side() == Side::Left ? BucketPair{&l, &r} : BucketPair{&r, &l};
}

// Is `e` an entry of this node with this key? (Hash mode prefilter; list
// buckets contain only the node's own entries.) A miss is a hash-line
// collision: an unrelated (node, key) resident on the same line.
inline bool entry_of_node(MatchContext& ctx, const Entry* e,
                          const rete::JoinNode* j, std::uint64_t hash) {
  if (ctx.strategy != MemoryStrategy::Hash) return true;
  if (e->node_id == j->id && e->hash == hash) return true;
  ctx.stats->line_collisions += 1;
  return false;
}

// The fingerprint a stored entry carries for `task`'s payload: the
// token's on the left, 0 on the right (wmes compare by pointer).
inline std::uint32_t payload_fp(const Task& task) {
  return task.side() == Side::Left ? task.token->fp : 0;
}

// Does `e` hold `task`'s payload? Left entries are screened on their
// stored fingerprint first, so a same-node resident of different content
// is rejected without touching its token.
inline bool same_payload(const Task& task, const Entry* e) {
  if (task.side() == Side::Right) return e->wme == task.wme;
  return e->fp == task.token->fp && token_content_equal(e->token, task.token);
}

// Emits one token to every successor of the join, in the emitting task's
// world.
void emit_to_successors(MatchContext&, const Task& src,
                        const rete::JoinNode* j, const Token* token,
                        std::int8_t sign, std::vector<Task>& out) {
  for (const rete::Successor& s : j->succs) {
    Task t;
    t.sign = sign;
    t.world = src.world;
    t.token = token;
    if (s.terminal) {
      t.kind = TaskKind::Terminal;
      t.terminal = s.terminal;
    } else {
      t.kind = TaskKind::JoinLeft;
      t.join = s.join;
    }
    out.push_back(t);
  }
}

}  // namespace

std::uint64_t task_hash(const Task& task) {
  const rete::JoinNode* j = task.join;
  std::uint64_t h = j->hash_seed;  // node id pre-mixed by the Builder
  if (task.side() == Side::Left) {
    const Token* t = task.token;
    for (const rete::KeySlot& s : j->left_key)
      h = mix64(h, t->wme_at(s.tok_pos)->field(s.slot).hash());
  } else {
    const Wme* w = task.wme;
    for (const std::uint16_t slot : j->right_key)
      h = mix64(h, w->field(slot).hash());
  }
  return h;
}

void process_root(MatchContext& ctx, WorldContext& world,
                  const rete::Network& net, const Task& task,
                  std::vector<Task>& out, ActivationCost* cost) {
  (void)world;  // roots touch no world memory; tokens go to the arena
  ctx.stats->wme_changes += 1;
  ctx.stats->node_activations += 1;
  const Wme* wme = task.wme;
  const auto* alphas = net.alphas_for_class(wme->cls);
  if (!alphas) return;
  const Token* unit_token = nullptr;  // lazily built length-1 token
  const std::size_t out0 = out.size();
  for (const rete::AlphaProgram* prog : *alphas) {
    bool pass = true;
    for (const rete::AlphaTest& t : prog->tests) {
      if (cost) cost->alpha_tests += 1;
      if (!rete::eval_alpha_test(t, wme->fields.data())) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (const rete::AlphaDest& dest : prog->dests) {
      Task t;
      t.sign = task.sign;
      t.world = task.world;
      t.join = dest.join;
      if (dest.side == Side::Right) {
        t.kind = TaskKind::JoinRight;
        t.wme = wme;
      } else {
        t.kind = TaskKind::JoinLeft;
        if (!unit_token) unit_token = ctx.arena->make_token(nullptr, wme);
        t.token = unit_token;
      }
      out.push_back(t);
    }
    for (const rete::TerminalNode* term : prog->terminal_dests) {
      Task t;
      t.kind = TaskKind::Terminal;
      t.sign = task.sign;
      t.world = task.world;
      t.terminal = term;
      if (!unit_token) unit_token = ctx.arena->make_token(nullptr, wme);
      t.token = unit_token;
      out.push_back(t);
    }
  }
  if (cost) cost->emissions += static_cast<std::uint32_t>(out.size() - out0);
}

MemUpdate process_join_update(MatchContext& ctx, WorldContext& world,
                              const Task& task, ActivationCost* cost,
                              const std::uint64_t* hash_hint) {
  ctx.stats->node_activations += 1;
  const rete::JoinNode* j = task.join;
  MemUpdate up;
  if (ctx.strategy == MemoryStrategy::Hash) {
    up.hash = hash_hint ? *hash_hint : task_hash(task);
    if (cost) {
      cost->hash_computed = true;
      cost->key_slots = static_cast<std::uint32_t>(j->eq_tests.size());
    }
  }
  BucketPair b = resolve_buckets(ctx, world, task, up.hash);
  const int si = side_index(task.side());

  if (task.sign > 0) {
    // Conjugate check: a parked `-` for the same payload annihilates us.
    Entry* prev = nullptr;
    for (Entry* e = b.own->extra_deletes; e; e = e->next) {
      if (entry_of_node(ctx, e, j, up.hash) && same_payload(task, e)) {
        if (prev) {
          prev->next = e->next;
        } else {
          b.own->extra_deletes = e->next;
        }
        ctx.stats->conjugate_hits += 1;
        up.outcome = MemUpdate::Outcome::Annihilated;
        return up;
      }
      prev = e;
    }
    // Insert: claim the bucket's inline fast slot when free (no heap
    // Entry, no extra cache line), else push onto the overflow chain.
    Entry* e;
    if (!b.own->fast.live) {
      e = &b.own->fast;
      e->next = nullptr;
      e->neg_count.store(0, std::memory_order_relaxed);
      e->token = task.token;
      e->wme = task.wme;
      e->hash = up.hash;
      e->node_id = j->id;
      e->fp = payload_fp(task);
      e->live = 1;
    } else {
      e = ctx.arena->make_entry();
      e->token = task.token;
      e->wme = task.wme;
      e->hash = up.hash;
      e->node_id = j->id;
      e->fp = payload_fp(task);
      e->next = b.own->head;
      b.own->head = e;
    }
    up.outcome = MemUpdate::Outcome::Inserted;
    up.entry = e;
    return up;
  }

  // Delete: locate the stored entry with the same payload — fast slot
  // first, then the overflow chain. The fast slot is freed by clearing
  // `live` only; its payload stays readable for the caller's probe phase
  // (see Entry::live).
  std::uint32_t examined = 0;
  Entry* found = nullptr;
  if (b.own->fast.live) {
    ++examined;
    if (entry_of_node(ctx, &b.own->fast, j, up.hash) &&
        same_payload(task, &b.own->fast)) {
      b.own->fast.live = 0;
      found = &b.own->fast;
    }
  }
  if (!found) {
    Entry* prev = nullptr;
    for (Entry* e = b.own->head; e; e = e->next) {
      ++examined;
      if (entry_of_node(ctx, e, j, up.hash) && same_payload(task, e)) {
        if (prev) {
          prev->next = e->next;
        } else {
          b.own->head = e->next;
        }
        found = e;
        break;
      }
      prev = e;
    }
  }
  if (examined > 0) {
    // Count the delete search (the own chain was non-empty).
    ctx.stats->same_del_examined[si] += examined;
    ctx.stats->same_del_activations[si] += 1;
    count_bucket_chain(*ctx.stats, examined);
    if (cost) cost->same_examined += examined;
  }
  if (found) {
    up.outcome = MemUpdate::Outcome::Removed;
    up.entry = found;
    return up;
  }
  // Not found: the `+` has not arrived yet; park on the extra-deletes list.
  Entry* e = ctx.arena->make_entry();
  e->token = task.token;
  e->wme = task.wme;
  e->hash = up.hash;
  e->node_id = j->id;
  e->fp = payload_fp(task);
  e->next = b.own->extra_deletes;
  b.own->extra_deletes = e;
  up.outcome = MemUpdate::Outcome::ParkedDelete;
  return up;
}

void process_join_probe(MatchContext& ctx, WorldContext& world,
                        const Task& task, const MemUpdate& update,
                        std::vector<Task>& out, ActivationCost* cost) {
  if (update.outcome == MemUpdate::Outcome::Annihilated ||
      update.outcome == MemUpdate::Outcome::ParkedDelete) {
    return;
  }
  const rete::JoinNode* j = task.join;
  BucketPair b = resolve_buckets(ctx, world, task, update.hash);
  const int si = side_index(task.side());
  const Side side = task.side();

  if (j->kind == rete::JoinKind::Positive) {
    std::uint32_t examined = 0;
    std::uint32_t pairs = 0;
    for (Entry* e = bucket_first(*b.opp); e; e = bucket_next(*b.opp, e)) {
      ++examined;
      if (!entry_of_node(ctx, e, j, update.hash)) continue;
      const Token* left = side == Side::Left ? task.token : e->token;
      const Wme* right = side == Side::Left ? e->wme : task.wme;
      if (!join_tests_pass(j, left, right)) continue;
      const Token* extended = ctx.arena->make_token(left, right);
      emit_to_successors(ctx, task, j, extended, task.sign, out);
      ++pairs;
      if (cost) cost->emitted_wmes += extended->len;
    }
    count_opp_examined(*ctx.stats, si, examined);
    count_bucket_chain(*ctx.stats, examined);
    ctx.stats->emissions += pairs;
    if (cost) {
      cost->opp_examined += examined;
      cost->emissions += pairs;
    }
    return;
  }

  // Negative node.
  if (side == Side::Left) {
    if (task.sign > 0) {
      // Count matching right wmes; pass the token through iff none.
      std::uint32_t examined = 0;
      std::int32_t count = 0;
      for (Entry* e = bucket_first(*b.opp); e; e = bucket_next(*b.opp, e)) {
        ++examined;
        if (!entry_of_node(ctx, e, j, update.hash)) continue;
        if (join_tests_pass(j, task.token, e->wme)) ++count;
      }
      count_opp_examined(*ctx.stats, si, examined);
      count_bucket_chain(*ctx.stats, examined);
      if (cost) cost->opp_examined += examined;
      update.entry->neg_count.store(count, std::memory_order_relaxed);
      if (count == 0) {
        emit_to_successors(ctx, task, j, task.token, +1, out);
        ctx.stats->emissions += 1;
        if (cost) cost->emissions += 1;
      }
    } else {
      // Delete of a left token: emit `-` iff it was currently passing.
      if (update.entry->neg_count.load(std::memory_order_relaxed) == 0) {
        emit_to_successors(ctx, task, j, update.entry->token, -1, out);
        ctx.stats->emissions += 1;
        if (cost) cost->emissions += 1;
      }
    }
    return;
  }

  // Right activation of a negative node: adjust counts of matching left
  // tokens; emissions happen on 0<->1 transitions.
  std::uint32_t examined = 0;
  for (Entry* e = bucket_first(*b.opp); e; e = bucket_next(*b.opp, e)) {
    ++examined;
    if (!entry_of_node(ctx, e, j, update.hash)) continue;
    if (!join_tests_pass(j, e->token, task.wme)) continue;
    if (task.sign > 0) {
      const std::int32_t prev =
          e->neg_count.fetch_add(1, std::memory_order_relaxed);
      if (prev == 0) {
        emit_to_successors(ctx, task, j, e->token, -1, out);
        ctx.stats->emissions += 1;
        if (cost) cost->emissions += 1;
      }
    } else {
      const std::int32_t prev =
          e->neg_count.fetch_sub(1, std::memory_order_relaxed);
      if (prev == 1) {
        emit_to_successors(ctx, task, j, e->token, +1, out);
        ctx.stats->emissions += 1;
        if (cost) cost->emissions += 1;
      }
    }
  }
  count_opp_examined(*ctx.stats, si, examined);
  count_bucket_chain(*ctx.stats, examined);
  if (cost) cost->opp_examined += examined;
}

void process_join(MatchContext& ctx, WorldContext& world, const Task& task,
                  std::vector<Task>& out, ActivationCost* cost,
                  const std::uint64_t* hash_hint) {
  const MemUpdate up = process_join_update(ctx, world, task, cost, hash_hint);
  process_join_probe(ctx, world, task, up, out, cost);
}

void process_terminal(MatchContext& ctx, WorldContext& world,
                      const Task& task, ActivationCost* cost) {
  (void)cost;
  ctx.stats->node_activations += 1;
  if (task.sign > 0) {
    world.conflict_set->insert(task.terminal->prod_index, task.token);
  } else {
    world.conflict_set->remove(task.terminal->prod_index, task.token);
  }
}

}  // namespace psme::match
