// The conflict set and OPS5 conflict resolution.
//
// Terminal-node activations insert or delete production instantiations here.
// Because parallel match can deliver a `-` before its `+` (conjugate pairs),
// deletions of not-yet-present instantiations are parked and annihilate the
// later insertion, mirroring the token-memory extra-deletes lists.
//
// Conflict resolution implements OPS5's LEX and MEA strategies with
// refraction, plus a deterministic total-order tie-break so that every
// engine — sequential, threaded, simulated — fires the same instantiation
// given the same conflict set (the cross-engine equivalence tests rely on
// this).
//
// Storage allocates nothing per instantiation once warm. Instantiations
// live in a slot pool; a freed slot goes on a free list and keeps its
// vectors' capacity for the next insertion. An open-addressed index over
// the content hash of (production, wme list) finds a slot, so a terminal
// activation hashes and compares the flat token's inline wme array in
// place. Conflict resolution scans a dense array of live slot numbers.
// Parked conjugate deletes use a second table of the same type.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/spinlock.hpp"
#include "common/value.hpp"
#include "ops5/program.hpp"
#include "runtime/token.hpp"

namespace psme {

enum class CrStrategy : std::uint8_t { Lex, Mea };

struct Instantiation {
  std::uint32_t prod_index = 0;
  std::vector<const Wme*> wmes;        // positive CEs in order
  std::vector<TimeTag> tags_desc;      // timetags sorted descending (LEX key)
  std::int32_t refcount = 0;           // transient duplicates during parallel match
  bool fired = false;                  // refraction

  std::vector<TimeTag> tags_in_order() const {
    std::vector<TimeTag> t;
    t.reserve(wmes.size());
    for (const Wme* w : wmes) t.push_back(w->timetag);
    return t;
  }
};

class ConflictSet {
 public:
  explicit ConflictSet(const ops5::Program& program) : program_(program) {}

  // Terminal activation entry points. Thread-safe (internal spin lock,
  // uncontended on the executor's path: see match::WorkerPool).
  void insert(std::uint32_t prod_index, const Token* token);
  void remove(std::uint32_t prod_index, const Token* token);
  // Same, from an explicit wme list (the lisp-style and TREAT engines).
  void insert(std::uint32_t prod_index, const std::vector<const Wme*>& wmes);
  void remove(std::uint32_t prod_index, const std::vector<const Wme*>& wmes);

  // TREAT-style maintenance: membership query, and bulk removal of every
  // instantiation that references a wme (TREAT has no beta memories, so
  // deletions are handled directly on the conflict set).
  bool contains(std::uint32_t prod_index,
                const std::vector<const Wme*>& wmes) const;
  std::size_t remove_containing(const Wme* wme);

  // Picks the dominant unfired instantiation under the strategy and marks it
  // fired. Returns nullopt if the conflict set is empty (of unfired,
  // positive-refcount entries). Must be called at quiescence (control
  // process only).
  std::optional<Instantiation> select_and_fire(CrStrategy strategy);

  // Picks the dominant unfired instantiation WITHOUT marking it fired.
  // The sharded match uses this for the propose phase: each shard peeks
  // its local dominant, the coordinator merges the candidates under the
  // same total order, and only the global winner's shard gets a
  // mark_fired. Must be called at quiescence.
  std::optional<Instantiation> peek(CrStrategy strategy) const;

  // Checkpoint restore: marks the live instantiation of `prod_index` whose
  // positive CEs carry exactly `tags` (in CE order) as already fired, so a
  // resumed run does not fire it again. Returns false when no live
  // instantiation matches (e.g. its wmes died before the checkpoint).
  bool mark_fired(std::uint32_t prod_index, const std::vector<TimeTag>& tags);

  // Snapshot of live instantiations (refcount > 0), in no particular order.
  std::vector<Instantiation> snapshot() const;
  // Live instantiations, fired ones included. The simulator prices each
  // cycle's resolution step by this count.
  std::size_t size() const;
  std::size_t pending_deletes() const;
  std::uint64_t conjugate_hits() const { return conjugate_hits_; }

  // Comparison: returns true if a dominates b under the strategy.
  // Exposed for unit tests.
  bool dominates(const Instantiation& a, const Instantiation& b,
                 CrStrategy strategy) const;

 private:
  // A (production, wme list) key viewed in place: a flat token's inline
  // array or a caller's vector.
  struct KeyView {
    std::uint32_t prod_index;
    const Wme* const* wmes;
    std::uint32_t len;
  };
  static KeyView view(std::uint32_t prod_index, const Token* token) {
    return {prod_index, token->wmes(), token->len};
  }
  static KeyView view(std::uint32_t prod_index,
                      const std::vector<const Wme*>& wmes) {
    return {prod_index, wmes.data(), static_cast<std::uint32_t>(wmes.size())};
  }
  static std::uint64_t hash_of(const KeyView& key);

  // Slot pool + open-addressed index (linear probing, backward-shift
  // deletion, load factor <= 1/2) + dense list of live slots. Not locked.
  class Table {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::uint32_t find(const KeyView& key, std::uint64_t hash) const;
    // Takes a slot for a key that find() missed: prod_index and wmes set,
    // refcount 0, unfired, tags_desc empty.
    std::uint32_t add(const KeyView& key, std::uint64_t hash);
    void erase(std::uint32_t slot);

    Instantiation& at(std::uint32_t slot) { return slots_[slot].inst; }
    const Instantiation& at(std::uint32_t slot) const {
      return slots_[slot].inst;
    }
    const std::vector<std::uint32_t>& live() const { return live_; }

   private:
    struct Slot {
      Instantiation inst;
      std::uint64_t hash = 0;
      std::uint32_t live_pos = 0;
    };
    void grow_index();

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    std::vector<std::uint32_t> live_;
    std::vector<std::uint32_t> index_;  // slot + 1; 0 marks an empty cell
  };

  void insert(const KeyView& key);
  void remove(const KeyView& key);

  // Scan for the dominant unfired entry. Caller holds lock_.
  const Instantiation* best_unfired_locked(CrStrategy strategy) const;

  const ops5::Program& program_;
  mutable SpinLock lock_;
  Table entries_;
  Table pending_deletes_;  // refcount = parked `-` count
  std::uint64_t conjugate_hits_ = 0;
};

}  // namespace psme
