// Token memories for the matcher.
//
// Two backends, matching the paper's uniprocessor versions:
//  - vs1: per-node linear lists (ListMemories) — every activation scans the
//    whole node memory;
//  - vs2/parallel: two global hash tables (left and right), keyed by
//    (join-node id, values bound by the node's equality tests). A "line" is
//    the pair of same-index buckets in the two tables plus their
//    extra-deletes lists (Section 3.2); matching left/right tokens land on
//    the same line by construction, so per-line locks serialize exactly the
//    work that conflicts.
//
// Cache-line layout: a Bucket is one 64-byte line holding a one-entry
// inline *fast slot* (48 B) plus its two chain heads — the common case of
// one resident token per (node, key) probes a single line and allocates no
// heap Entry. Buckets are 64-byte aligned so adjacent lines never
// false-share, and the arena gives each chain Entry a line of its own.
//
// Every bucket carries an extra-deletes chain holding `-` tokens that
// arrived before their `+` partner (conjugate pairs, Section 3.2).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "runtime/token.hpp"

namespace psme::match {

// A memory entry; lives in a bucket's inline fast slot, a main chain, or an
// extra-deletes chain. Left entries reference a Token, right entries a Wme.
// `neg_count` is the number of matching right wmes for a negative node's
// left entry.
struct Entry {
  Entry* next = nullptr;
  const Token* token = nullptr;
  const Wme* wme = nullptr;
  std::uint64_t hash = 0;     // full (node, key-values) hash; 0 in list mode
  std::uint32_t node_id = 0;  // owning join node (hash backend)
  std::atomic<std::int32_t> neg_count{0};
  // Occupancy of a Bucket's inline fast slot; chain entries are always
  // live. Fast-slot removal clears this flag but NOT the payload:
  // MemUpdate::entry is dereferenced by the caller after a Removed outcome
  // (the negative-node delete path reads token/neg_count under its
  // exclusive line lock), so the fields must stay readable until the next
  // same-line insert overwrites them.
  std::uint8_t live = 0;
};
static_assert(sizeof(Entry) == 48, "fast slot and two chain heads fill a line");

struct alignas(64) Bucket {
  Entry fast;                      // inline fast slot
  Entry* head = nullptr;           // overflow chain
  Entry* extra_deletes = nullptr;  // parked `-` tokens awaiting their `+`
};
static_assert(sizeof(Bucket) == 64, "a bucket is one cache line");
static_assert(alignof(Bucket) == 64, "buckets must not share cache lines");

// Read-only traversal over a bucket's resident entries: the fast slot
// first (when live), then the overflow chain. Mutating paths (insert,
// delete-unlink) handle the fast slot explicitly instead.
inline Entry* bucket_first(Bucket& b) {
  return b.fast.live ? &b.fast : b.head;
}
inline Entry* bucket_next(Bucket& b, Entry* e) {
  return e == &b.fast ? b.head : e->next;
}

// One side's global hash table (vs2 / parallel backend). A non-power-of-two
// bucket count would silently map hashes onto a subset of buckets through
// `mask_`, so the count is rounded up to the next power of two.
class HashTokenTable {
 public:
  explicit HashTokenTable(std::uint32_t bucket_count)
      : buckets_(round_up_pow2(bucket_count)), mask_(buckets_.size() - 1) {
    assert(std::has_single_bit(buckets_.size()));
  }

  Bucket& bucket(std::uint64_t hash) { return buckets_[hash & mask_]; }
  Bucket& bucket_at(std::uint32_t idx) { return buckets_[idx]; }
  std::uint32_t line_of(std::uint64_t hash) const {
    return static_cast<std::uint32_t>(hash & mask_);
  }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(buckets_.size());
  }

  static std::uint32_t round_up_pow2(std::uint32_t n) {
    return std::bit_ceil(n == 0 ? 1u : n);
  }

 private:
  std::vector<Bucket> buckets_;
  std::uint64_t mask_;
};

// Per-node memories (vs1 backend): index by JoinNode::{left_mem,right_mem}.
class ListMemories {
 public:
  explicit ListMemories(std::uint32_t count) : buckets_(count) {}
  Bucket& at(std::uint32_t idx) { return buckets_[idx]; }

 private:
  std::vector<Bucket> buckets_;
};

// Bump allocator for tokens and entries. Allocations live for the whole run
// (matcher state persists across cycles); everything is reclaimed when the
// arena dies. Each worker owns its own arena, so allocation never
// synchronizes between match processes; arenas are cache-line aligned so
// per-worker arenas stored side by side never false-share.
class alignas(64) BumpArena {
 public:
  // Flat-token allocation: header plus the inline `const Wme*[len]` array
  // in one variable-length block. The parent's prefix is copied by memcpy;
  // the parent pointer is kept for the rr digest path.
  Token* make_token(const Token* parent, const Wme* wme) {
    const std::uint32_t len = parent ? parent->len + 1 : 1;
    const std::size_t bytes = Token::flat_bytes(len);
    if (bytes > kMaxAlloc)
      throw std::length_error("flat token exceeds BumpArena block size");
    Token* t = new (alloc_raw(bytes, alignof(Token))) Token();
    t->parent = parent;
    t->wme = wme;
    t->len = len;
    const Wme** dst = t->wmes_mut();
    if (parent)
      std::memcpy(dst, parent->wmes(),
                  std::size_t{parent->len} * sizeof(const Wme*));
    dst[len - 1] = wme;
    return t;
  }
  // Each chain entry gets a 64-byte line of its own, so the `neg_count`
  // one match process updates never false-shares with a neighbour.
  Entry* make_entry() {
    static_assert(sizeof(Entry) <= kLine && kLine <= kMaxAlign);
    static_assert(std::is_trivially_destructible_v<Entry>);
    Entry* e = new (alloc_raw(kLine, kLine)) Entry();
    e->live = 1;
    return e;
  }

  std::size_t bytes_allocated() const { return bytes_; }

  // Does `p` point into one of this arena's blocks? World-isolation tests
  // use this to prove a world's tokens and entries never reference another
  // world's arena.
  bool owns(const void* p) const {
    const std::byte* q = static_cast<const std::byte*>(p);
    for (const auto& b : blocks_) {
      if (q >= b.get() && q < b.get() + kBlockSize) return true;
    }
    return false;
  }

  // WorldReset support: discard every allocation, overwrite the retained
  // block with a poison byte so a stale pointer into a reset world's arena
  // reads as garbage instead of a plausible token, and free the rest.
  // Allocation restarts from the retained block.
  static constexpr int kPoisonByte = 0x5a;
  void reset(bool poison = true) {
    if (poison) {
      for (auto& b : blocks_) std::memset(b.get(), kPoisonByte, kBlockSize);
    }
    if (blocks_.size() > 1) blocks_.resize(1);
    used_ = 0;
    bytes_ = 0;
  }

  static constexpr std::size_t kBlockSize = 1u << 16;
  static constexpr std::size_t kLine = 64;
  // Worst case a fresh block starts `align - 1` bytes past alignment.
  static constexpr std::size_t kMaxAlign = 64;
  static constexpr std::size_t kMaxAlloc = kBlockSize - kMaxAlign;

 private:
  void* alloc_raw(std::size_t size, std::size_t align) {
    assert(size <= kMaxAlloc && align <= kMaxAlign);
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (!blocks_.empty()) {
        std::byte* base = blocks_.back().get();
        const std::uintptr_t raw =
            reinterpret_cast<std::uintptr_t>(base) + used_;
        const std::uintptr_t aligned =
            (raw + (align - 1)) & ~std::uintptr_t{align - 1};
        const std::size_t offset =
            aligned - reinterpret_cast<std::uintptr_t>(base);
        if (offset + size <= kBlockSize) {
          used_ = offset + size;
          bytes_ += size;
          return base + offset;
        }
      }
      blocks_.emplace_back(new std::byte[kBlockSize]);
      used_ = 0;
    }
    return nullptr;  // unreachable: size + padding fits a fresh block
  }

  std::deque<std::unique_ptr<std::byte[]>> blocks_;
  std::size_t used_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace psme::match
