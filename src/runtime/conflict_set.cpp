#include "runtime/conflict_set.hpp"

#include <algorithm>
#include <functional>

#include "common/symbol_table.hpp"

namespace psme {

std::uint64_t ConflictSet::hash_of(const KeyView& key) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull * (std::uint64_t{key.prod_index} + 1);
  for (std::uint32_t i = 0; i < key.len; ++i) {
    h ^= reinterpret_cast<std::uintptr_t>(key.wmes[i]);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

// --- Table -----------------------------------------------------------------

std::uint32_t ConflictSet::Table::find(const KeyView& key,
                                       std::uint64_t hash) const {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t cell = index_[i];
    if (cell == 0) return kNone;
    const Slot& s = slots_[cell - 1];
    if (s.hash == hash && s.inst.prod_index == key.prod_index &&
        s.inst.wmes.size() == key.len &&
        std::equal(key.wmes, key.wmes + key.len, s.inst.wmes.begin()))
      return cell - 1;
  }
}

std::uint32_t ConflictSet::Table::add(const KeyView& key,
                                      std::uint64_t hash) {
  if ((live_.size() + 1) * 2 > index_.size()) grow_index();
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.hash = hash;
  s.live_pos = static_cast<std::uint32_t>(live_.size());
  s.inst.prod_index = key.prod_index;
  s.inst.wmes.assign(key.wmes, key.wmes + key.len);
  s.inst.tags_desc.clear();
  s.inst.refcount = 0;
  s.inst.fired = false;
  live_.push_back(slot);
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = slot + 1;
  return slot;
}

void ConflictSet::Table::erase(std::uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slots_[slot].hash & mask;
  while (index_[i] != slot + 1) i = (i + 1) & mask;
  // Backward-shift deletion: pull later cells of the probe run into the
  // hole unless their home lies cyclically in (hole, cell].
  for (std::size_t j = i;;) {
    j = (j + 1) & mask;
    if (index_[j] == 0) break;
    const std::size_t home = slots_[index_[j] - 1].hash & mask;
    const bool stays =
        i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (stays) continue;
    index_[i] = index_[j];
    i = j;
  }
  index_[i] = 0;

  const std::uint32_t pos = slots_[slot].live_pos;
  const std::uint32_t moved = live_.back();
  live_[pos] = moved;
  slots_[moved].live_pos = pos;
  live_.pop_back();
  free_.push_back(slot);
}

void ConflictSet::Table::grow_index() {
  std::vector<std::uint32_t> old;
  old.swap(index_);
  index_.assign(old.empty() ? 64 : old.size() * 2, 0);
  const std::size_t mask = index_.size() - 1;
  for (const std::uint32_t cell : old) {
    if (cell == 0) continue;
    std::size_t i = slots_[cell - 1].hash & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = cell;
  }
}

// --- ConflictSet -------------------------------------------------------------

void ConflictSet::insert(std::uint32_t prod_index, const Token* token) {
  insert(view(prod_index, token));
}

void ConflictSet::remove(std::uint32_t prod_index, const Token* token) {
  remove(view(prod_index, token));
}

void ConflictSet::insert(std::uint32_t prod_index,
                         const std::vector<const Wme*>& wmes) {
  insert(view(prod_index, wmes));
}

void ConflictSet::remove(std::uint32_t prod_index,
                         const std::vector<const Wme*>& wmes) {
  remove(view(prod_index, wmes));
}

void ConflictSet::insert(const KeyView& key) {
  const std::uint64_t hash = hash_of(key);
  SpinGuard g(lock_);
  const std::uint32_t pd = pending_deletes_.find(key, hash);
  if (pd != Table::kNone) {
    ++conjugate_hits_;
    if (--pending_deletes_.at(pd).refcount == 0) pending_deletes_.erase(pd);
    return;
  }
  std::uint32_t slot = entries_.find(key, hash);
  if (slot == Table::kNone) slot = entries_.add(key, hash);
  Instantiation& inst = entries_.at(slot);
  if (inst.refcount++ > 0) return;
  for (const Wme* w : inst.wmes) inst.tags_desc.push_back(w->timetag);
  std::sort(inst.tags_desc.begin(), inst.tags_desc.end(),
            std::greater<TimeTag>());
}

void ConflictSet::remove(const KeyView& key) {
  const std::uint64_t hash = hash_of(key);
  SpinGuard g(lock_);
  const std::uint32_t slot = entries_.find(key, hash);
  if (slot == Table::kNone) {
    std::uint32_t pd = pending_deletes_.find(key, hash);
    if (pd == Table::kNone) pd = pending_deletes_.add(key, hash);
    ++pending_deletes_.at(pd).refcount;
    return;
  }
  if (--entries_.at(slot).refcount == 0) entries_.erase(slot);
}

bool ConflictSet::mark_fired(std::uint32_t prod_index,
                             const std::vector<TimeTag>& tags) {
  SpinGuard g(lock_);
  for (const std::uint32_t slot : entries_.live()) {
    Instantiation& inst = entries_.at(slot);
    if (inst.prod_index != prod_index || inst.wmes.size() != tags.size())
      continue;
    if (!std::equal(tags.begin(), tags.end(), inst.wmes.begin(),
                    [](TimeTag t, const Wme* w) { return w->timetag == t; }))
      continue;
    inst.fired = true;
    return true;
  }
  return false;
}

bool ConflictSet::contains(std::uint32_t prod_index,
                           const std::vector<const Wme*>& wmes) const {
  const KeyView key = view(prod_index, wmes);
  const std::uint64_t hash = hash_of(key);
  SpinGuard g(lock_);
  return entries_.find(key, hash) != Table::kNone;
}

std::size_t ConflictSet::remove_containing(const Wme* wme) {
  SpinGuard g(lock_);
  std::size_t removed = 0;
  // Backwards: erase() fills the hole with the last live slot, which this
  // walk has already visited.
  for (std::size_t i = entries_.live().size(); i-- > 0;) {
    const std::uint32_t slot = entries_.live()[i];
    const std::vector<const Wme*>& wmes = entries_.at(slot).wmes;
    if (std::find(wmes.begin(), wmes.end(), wme) == wmes.end()) continue;
    entries_.erase(slot);
    ++removed;
  }
  return removed;
}

bool ConflictSet::dominates(const Instantiation& a, const Instantiation& b,
                            CrStrategy strategy) const {
  if (strategy == CrStrategy::Mea) {
    // MEA: recency of the wme matching the first condition element first.
    const TimeTag ta = a.wmes.empty() ? 0 : a.wmes.front()->timetag;
    const TimeTag tb = b.wmes.empty() ? 0 : b.wmes.front()->timetag;
    if (ta != tb) return ta > tb;
  }
  // LEX recency: compare descending-sorted timetag lists lexicographically;
  // on a common prefix, the longer list dominates.
  const std::size_t n = std::min(a.tags_desc.size(), b.tags_desc.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.tags_desc[i] != b.tags_desc[i])
      return a.tags_desc[i] > b.tags_desc[i];
  }
  if (a.tags_desc.size() != b.tags_desc.size())
    return a.tags_desc.size() > b.tags_desc.size();
  // Specificity: number of LHS tests.
  const int sa = program_.productions()[a.prod_index].specificity;
  const int sb = program_.productions()[b.prod_index].specificity;
  if (sa != sb) return sa > sb;
  // Deterministic tie-break (OPS5 says "arbitrary"): production name, then
  // in-order timetags.
  if (a.prod_index != b.prod_index) {
    const std::string& na =
        symbol_name(program_.productions()[a.prod_index].name);
    const std::string& nb =
        symbol_name(program_.productions()[b.prod_index].name);
    if (na != nb) return na < nb;
    return a.prod_index < b.prod_index;
  }
  return a.tags_in_order() < b.tags_in_order();
}

const Instantiation* ConflictSet::best_unfired_locked(
    CrStrategy strategy) const {
  const Instantiation* best = nullptr;
  for (const std::uint32_t slot : entries_.live()) {
    const Instantiation& inst = entries_.at(slot);
    if (inst.fired) continue;
    if (!best || dominates(inst, *best, strategy)) best = &inst;
  }
  return best;
}

std::optional<Instantiation> ConflictSet::select_and_fire(
    CrStrategy strategy) {
  SpinGuard g(lock_);
  const Instantiation* best = best_unfired_locked(strategy);
  if (!best) return std::nullopt;
  const_cast<Instantiation*>(best)->fired = true;
  return *best;
}

std::optional<Instantiation> ConflictSet::peek(CrStrategy strategy) const {
  SpinGuard g(lock_);
  const Instantiation* best = best_unfired_locked(strategy);
  if (!best) return std::nullopt;
  return *best;
}

std::vector<Instantiation> ConflictSet::snapshot() const {
  SpinGuard g(lock_);
  std::vector<Instantiation> out;
  out.reserve(entries_.live().size());
  for (const std::uint32_t slot : entries_.live())
    out.push_back(entries_.at(slot));
  return out;
}

std::size_t ConflictSet::size() const {
  SpinGuard g(lock_);
  return entries_.live().size();
}

std::size_t ConflictSet::pending_deletes() const {
  SpinGuard g(lock_);
  std::size_t n = 0;
  for (const std::uint32_t slot : pending_deletes_.live())
    n += static_cast<std::size_t>(pending_deletes_.at(slot).refcount);
  return n;
}

}  // namespace psme
