// Beta tokens: the ordered lists of wmes flowing through the Rete network.
//
// Tokens are immutable *flat* records: a fixed header followed inline by
// the full `const Wme*[len]` array in CE order, so `wme_at` is one indexed
// load and `token_content_equal` is a memcmp — no parent-chain walk on the
// hash/probe/delete hot paths. Extending a match by one wme still allocates
// a single (variable-length) node; see BumpArena::make_token, the only way
// a Token is ever built. The `parent` pointer is preserved for the rr
// digest path and for tests that cross-check the flat array against the
// classic chained walk.
//
// Two tokens are *content-equal* when their wme pointer sequences agree;
// parallel delete processing uses content equality because the `-` path
// rebuilds its own token objects. `fp` is a 32-bit fingerprint of that
// sequence, folded in O(1) per extension from the parent's: content-equal
// tokens always carry equal `fp`, so a differing `fp` rejects a candidate
// without reading its wme array. Equal `fp` proves nothing — the memcmp
// stays the final test.
#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/wme.hpp"

namespace psme {

struct Token {
  const Token* parent = nullptr;  // nullptr for length-1 tokens
  const Wme* wme = nullptr;       // last wme (== wmes()[len - 1])
  std::uint32_t len = 1;
  std::uint32_t fp = 0;  // content fingerprint (header padding; see above)

  // The inline wme array lives immediately after the header; sizeof(Token)
  // is a multiple of alignof(const Wme*), so `this + 1` is correctly
  // aligned for it.
  const Wme* const* wmes() const {
    return reinterpret_cast<const Wme* const*>(this + 1);
  }
  const Wme** wmes_mut() { return reinterpret_cast<const Wme**>(this + 1); }

  // wme at 0-based position `pos` from the front (CE order). O(1).
  const Wme* wme_at(std::uint32_t pos) const { return wmes()[pos]; }

  static constexpr std::size_t flat_bytes(std::uint32_t len) {
    return sizeof(Token) + std::size_t{len} * sizeof(const Wme*);
  }
};
static_assert(sizeof(Token) % alignof(const Wme*) == 0,
              "inline wme array must start aligned");
static_assert(sizeof(Token) == 24, "fp lives in the header's padding");

// The fingerprint of `parent` extended by `wme` (parent's fp, or a fixed
// seed for a length-1 token, mixed with the wme's address). A function of
// the wme sequence alone, so content-equal tokens fingerprint equal.
inline std::uint32_t token_fingerprint(const Token* parent, const Wme* wme) {
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(wme);
  x = (x ^ (parent ? parent->fp : 0x9e3779b9u)) * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  return static_cast<std::uint32_t>(x >> 32);
}

inline bool token_content_equal(const Token* a, const Token* b) {
  if (a == b) return true;
  if (!a || !b || a->len != b->len || a->fp != b->fp) return false;
  return std::memcmp(a->wmes(), b->wmes(),
                     std::size_t{a->len} * sizeof(const Wme*)) == 0;
}

}  // namespace psme
