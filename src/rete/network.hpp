// Rete network representation.
//
// Mirrors the paper's compiled network (Section 2.2 / Figure 2-2):
//  - constant-test nodes, kept both as a shared tree (for network statistics
//    and the printer) and flattened into allocation-free `AlphaProgram`s that
//    execution dispatches to by wme class — the "compiled into machine code"
//    analogue;
//  - memory nodes coalesced with the two-input nodes below them (the paper's
//    task decomposition, Section 3.1): a JoinNode owns both of its memories;
//  - negative two-input nodes for negated condition elements;
//  - terminal nodes, one per production.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/value.hpp"
#include "ops5/ast.hpp"

namespace psme::rete {

// ---------------------------------------------------------------------------
// Alpha level

enum class AlphaTestKind : std::uint8_t {
  ConstPred,    // wme[slot] OP constant
  SlotPred,     // wme[slot] OP wme[other_slot]  (intra-CE variable test)
  Disjunction,  // wme[slot] ∈ {constants}
};

struct AlphaTest {
  AlphaTestKind kind = AlphaTestKind::ConstPred;
  std::uint16_t slot = 0;
  ops5::PredOp op = ops5::PredOp::Eq;
  Value constant;
  std::uint16_t other_slot = 0;
  std::vector<Value> disjuncts;

  bool operator==(const AlphaTest& o) const;
};

struct JoinNode;
struct TerminalNode;

// Where the output of an alpha program goes. For every CE except the first,
// passing wmes become *right* activations of that CE's join node. For the
// first CE they become length-1 tokens delivered as *left* activations of
// the second CE's join (or terminal activations for single-CE productions).
struct AlphaDest {
  JoinNode* join = nullptr;
  Side side = Side::Right;
};

struct AlphaProgram {
  std::uint32_t id = 0;
  SymbolId cls = 0;
  std::vector<AlphaTest> tests;
  std::vector<AlphaDest> dests;
  std::vector<TerminalNode*> terminal_dests;  // single-CE productions
};

// Conceptual constant-test node tree, used for sharing statistics and the
// printer; execution uses the flattened AlphaPrograms.
struct ConstantTestNode {
  std::uint32_t id = 0;
  AlphaTest test;                             // unused at the class root
  std::vector<ConstantTestNode*> children;
  std::vector<AlphaProgram*> outputs;         // alpha programs ending here
};

// ---------------------------------------------------------------------------
// Beta level

enum class JoinKind : std::uint8_t { Positive, Negative };

// token[tok_pos].field[tok_slot] == wme.field[wme_slot]; used for hashing.
struct EqTest {
  std::uint8_t tok_pos = 0;
  std::uint16_t tok_slot = 0;
  std::uint16_t wme_slot = 0;
  bool operator==(const EqTest&) const = default;
};

// wme.field[wme_slot] OP token[tok_pos].field[tok_slot]; evaluated after the
// hash probe (non-equality variable predicates).
struct BetaPred {
  ops5::PredOp op = ops5::PredOp::Eq;
  std::uint8_t tok_pos = 0;
  std::uint16_t tok_slot = 0;
  std::uint16_t wme_slot = 0;
  bool operator==(const BetaPred&) const = default;
};

// Exactly one of {join, terminal} is set.
struct Successor {
  JoinNode* join = nullptr;
  Side side = Side::Left;  // always Left for join successors
  TerminalNode* terminal = nullptr;
};

// One slot of a compiled left-side join key: read
// token[tok_pos].field[slot]. The right-side layout is just the wme slot.
struct KeySlot {
  std::uint8_t tok_pos = 0;
  std::uint16_t slot = 0;
};

struct JoinNode {
  std::uint32_t id = 0;
  JoinKind kind = JoinKind::Positive;
  std::uint8_t left_len = 1;  // token length arriving on the left input
  std::vector<EqTest> eq_tests;
  std::vector<BetaPred> preds;
  std::vector<Successor> succs;
  // Per-node memory indices for the list (vs1) backend.
  std::uint32_t left_mem = 0;
  std::uint32_t right_mem = 0;
  // Compiled join-key layout (Builder::build post-pass): the equality
  // tests flattened per side so task_hash reads slots directly, plus a
  // per-node seed already mixed — hashing an activation never re-derives
  // EqTest indirections or re-mixes the node id.
  std::vector<KeySlot> left_key;          // one per eq test, in test order
  std::vector<std::uint16_t> right_key;   // wme field slots, same order
  std::uint64_t hash_seed = 0;

  // Partition metadata (src/shard/partition.hpp): a keyless join hashes
  // to hash_seed alone, so every activation of it lands on one shard —
  // the documented fallback that replaces broadcasting its activations.
  bool keyless() const { return left_key.empty(); }
};

struct TerminalNode {
  std::uint32_t id = 0;
  std::uint32_t prod_index = 0;  // into Program::productions()
  std::uint8_t num_positive = 0;
};

// ---------------------------------------------------------------------------

struct NetworkCounts {
  std::size_t constant_test_nodes = 0;
  std::size_t shared_constant_test_nodes = 0;  // nodes with >1 user
  std::size_t alpha_programs = 0;
  std::size_t join_nodes = 0;
  std::size_t negative_nodes = 0;
  std::size_t shared_join_nodes = 0;  // joins with >1 successor
  std::size_t keyless_join_nodes = 0;  // single-owner fallback when sharded
  std::size_t terminal_nodes = 0;
};

class Network {
 public:
  const std::vector<AlphaProgram*>* alphas_for_class(SymbolId cls) const {
    auto it = by_class_.find(cls);
    return it == by_class_.end() ? nullptr : &it->second;
  }
  const std::vector<std::unique_ptr<AlphaProgram>>& alphas() const {
    return alphas_;
  }
  const std::vector<std::unique_ptr<JoinNode>>& joins() const {
    return joins_;
  }
  const std::vector<std::unique_ptr<TerminalNode>>& terminals() const {
    return terminals_;
  }
  const ConstantTestNode* class_root(SymbolId cls) const;
  std::uint32_t num_list_memories() const { return num_list_memories_; }
  NetworkCounts counts() const;

 private:
  friend class Builder;
  std::vector<std::unique_ptr<AlphaProgram>> alphas_;
  std::unordered_map<SymbolId, std::vector<AlphaProgram*>> by_class_;
  std::vector<std::unique_ptr<JoinNode>> joins_;
  std::vector<std::unique_ptr<TerminalNode>> terminals_;
  std::vector<std::unique_ptr<ConstantTestNode>> ct_nodes_;
  std::unordered_map<SymbolId, ConstantTestNode*> ct_roots_;
  std::uint32_t num_list_memories_ = 0;
};

// Runs one alpha test against a wme's fields (fields indexed by slot).
bool eval_alpha_test(const AlphaTest& t, const Value* fields);

}  // namespace psme::rete
