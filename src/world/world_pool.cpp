#include "world/world.hpp"

#include <stdexcept>
#include <string>

namespace psme::world {

std::uint64_t WorldPool::world_seed(std::uint64_t base, std::uint32_t id) {
  // splitmix64 of (base + id): adjacent world ids get uncorrelated seeds.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WorldPool::WorldPool(const ops5::Program& program,
                     const EngineOptions& options, std::uint32_t num_worlds,
                     int endpoints)
    : image_(program), endpoints_(endpoints) {
  if (num_worlds == 0)
    throw std::invalid_argument("WorldPool: need at least one world");
  if (endpoints < 1)
    throw std::invalid_argument("WorldPool: need at least one endpoint");
  worlds_.reserve(num_worlds);
  for (std::uint32_t i = 0; i < num_worlds; ++i) {
    worlds_.push_back(std::make_unique<World>());
    init_world(*worlds_.back(), i, program, options, endpoints_);
  }
}

void init_world(World& w, std::uint32_t id, const ops5::Program& program,
                const EngineOptions& options, int endpoints) {
  w.reset(program, options.max_cycles);
  w.watch_prefix = "[w" + std::to_string(id) + "] ";
  w.id = id;
  w.seed = WorldPool::world_seed(options.seed, id);
  w.cs = std::make_unique<ConflictSet>(program);
  const std::uint32_t buckets = options.hash_buckets.value_or(kHashBuckets);
  w.left_table = std::make_unique<match::HashTokenTable>(buckets);
  w.right_table = std::make_unique<match::HashTokenTable>(buckets);
  if (w.arenas.empty())
    w.arenas = std::vector<match::BumpArena>(
        static_cast<std::size_t>(endpoints));
  w.ctx.left_table = w.left_table.get();
  w.ctx.right_table = w.right_table.get();
  w.ctx.conflict_set = w.cs.get();
}

void reset_world_state(World& w, const ops5::Program& program,
                       const EngineOptions& options, int endpoints) {
  // Poison before the new state exists: any pointer that survived the
  // reset now reads arena garbage, never a live token of the next epoch.
  for (match::BumpArena& a : w.arenas) a.reset(/*poison=*/true);
  w.inline_queue.clear();
  w.emit_buf.clear();
  w.digests.clear();
  w.live = false;
  init_world(w, w.id, program, options, endpoints);
}

}  // namespace psme::world
