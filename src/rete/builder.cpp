#include "rete/builder.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>

#include "common/symbol_table.hpp"

namespace psme::rete {
namespace {

using ops5::AnalyzedProduction;
using ops5::ConditionElement;
using ops5::FieldPattern;
using ops5::PredOp;
using ops5::Program;
using ops5::TestAtom;
using ops5::VarBinding;

// Structural key for a join node, used for prefix sharing. `parent` is the
// id of the previous join in the chain, or ~alpha_id for level-one joins
// whose left input is the first CE's alpha program.
struct JoinKey {
  std::uint64_t parent;
  std::uint32_t right_alpha;
  JoinKind kind;
  std::vector<EqTest> eq_tests;
  std::vector<BetaPred> preds;

  bool operator<(const JoinKey& o) const {  // NOLINT

    if (parent != o.parent) return parent < o.parent;
    if (right_alpha != o.right_alpha) return right_alpha < o.right_alpha;
    if (kind != o.kind) return kind < o.kind;
    auto as_tuple = [](const EqTest& t) {
      return std::tuple(t.tok_pos, t.tok_slot, t.wme_slot);
    };
    if (eq_tests.size() != o.eq_tests.size())
      return eq_tests.size() < o.eq_tests.size();
    for (std::size_t i = 0; i < eq_tests.size(); ++i) {
      if (as_tuple(eq_tests[i]) != as_tuple(o.eq_tests[i]))
        return as_tuple(eq_tests[i]) < as_tuple(o.eq_tests[i]);
    }
    auto p_tuple = [](const BetaPred& t) {
      return std::tuple(t.op, t.tok_pos, t.tok_slot, t.wme_slot);
    };
    if (preds.size() != o.preds.size()) return preds.size() < o.preds.size();
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (p_tuple(preds[i]) != p_tuple(o.preds[i]))
        return p_tuple(preds[i]) < p_tuple(o.preds[i]);
    }
    return false;
  }
};

}  // namespace

// Named (non-anonymous) so Network's `friend class Builder` applies.
class Builder {
 public:
  explicit Builder(const Program& program)
      : program_(program), net_(std::make_unique<Network>()) {}

  std::unique_ptr<Network> build() {
    const auto& prods = program_.productions();
    for (std::size_t pi = 0; pi < prods.size(); ++pi) build_production(pi);
    // Assign per-node list-memory indices for the vs1 backend.
    std::uint32_t next_mem = 0;
    for (auto& j : net_->joins_) {
      j->left_mem = next_mem++;
      j->right_mem = next_mem++;
    }
    net_->num_list_memories_ = next_mem;
    // Compile the join-key extractors: flatten the equality tests into
    // per-side slot layouts and pre-mix the node id into a per-node seed
    // (splitmix64), so task_hash starts from a well-spread state and only
    // mixes the key values.
    for (auto& j : net_->joins_) {
      std::uint64_t z = (j->id + 1) * 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      j->hash_seed = z ^ (z >> 31);
      for (const EqTest& eq : j->eq_tests) {
        j->left_key.push_back(KeySlot{eq.tok_pos, eq.tok_slot});
        j->right_key.push_back(eq.wme_slot);
      }
    }
    return std::move(net_);
  }

 private:
  // --- alpha level -------------------------------------------------------

  // Builds (or reuses) the alpha program for one condition element, and
  // threads it through the shared constant-test node tree.
  AlphaProgram* alpha_for(const AnalyzedProduction& ap,
                          const ConditionElement& ce, int ce_index) {
    const SymbolId cls = intern(ce.cls);
    std::vector<AlphaTest> tests = alpha_tests_for(ap, ce, ce_index);

    // Reuse an existing identical program.
    auto& class_list = net_->by_class_[cls];
    for (AlphaProgram* existing : class_list) {
      if (existing->tests == tests) return existing;
    }
    auto prog = std::make_unique<AlphaProgram>();
    prog->id = static_cast<std::uint32_t>(net_->alphas_.size());
    prog->cls = cls;
    prog->tests = std::move(tests);
    AlphaProgram* raw = prog.get();
    net_->alphas_.push_back(std::move(prog));
    class_list.push_back(raw);
    thread_constant_tests(raw);
    return raw;
  }

  std::vector<AlphaTest> alpha_tests_for(const AnalyzedProduction& ap,
                                         const ConditionElement& ce,
                                         int ce_index) {
    const SymbolId cls = intern(ce.cls);
    std::vector<AlphaTest> tests;
    for (const FieldPattern& f : ce.fields) {
      const std::uint16_t slot = program_.slot(cls, intern(f.attr));
      if (!f.disjunction.empty()) {
        AlphaTest t;
        t.kind = AlphaTestKind::Disjunction;
        t.slot = slot;
        t.disjuncts = f.disjunction;
        tests.push_back(std::move(t));
        continue;
      }
      for (const TestAtom& atom : f.tests) {
        if (!atom.is_var) {
          AlphaTest t;
          t.kind = AlphaTestKind::ConstPred;
          t.slot = slot;
          t.op = atom.op;
          t.constant = atom.constant;
          tests.push_back(std::move(t));
          continue;
        }
        const SymbolId var = intern(atom.var);
        const VarBinding& b = ap.bindings.at(var);
        const bool binds_here =
            b.ce_index == ce_index && b.slot == slot && atom.op == PredOp::Eq;
        if (binds_here) continue;  // binding occurrence: no test
        if (b.ce_index == ce_index) {
          // Intra-CE variable test: wme[slot] OP wme[binding slot].
          AlphaTest t;
          t.kind = AlphaTestKind::SlotPred;
          t.slot = slot;
          t.op = atom.op;
          t.other_slot = b.slot;
          tests.push_back(std::move(t));
        }
        // Cross-CE tests are beta-level; handled in beta_tests_for.
      }
    }
    return tests;
  }

  // Registers the alpha program in the conceptual constant-test node tree,
  // sharing prefixes (Figure 2-2's shared constant-test chains).
  void thread_constant_tests(AlphaProgram* prog) {
    ConstantTestNode*& root = net_->ct_roots_[prog->cls];
    if (!root) {
      auto node = std::make_unique<ConstantTestNode>();
      node->id = static_cast<std::uint32_t>(net_->ct_nodes_.size());
      root = node.get();
      net_->ct_nodes_.push_back(std::move(node));
    }
    ConstantTestNode* cur = root;
    for (const AlphaTest& t : prog->tests) {
      ConstantTestNode* next = nullptr;
      for (ConstantTestNode* child : cur->children) {
        if (child->test == t) {
          next = child;
          break;
        }
      }
      if (!next) {
        auto node = std::make_unique<ConstantTestNode>();
        node->id = static_cast<std::uint32_t>(net_->ct_nodes_.size());
        node->test = t;
        next = node.get();
        cur->children.push_back(next);
        net_->ct_nodes_.push_back(std::move(node));
      }
      cur = next;
    }
    cur->outputs.push_back(prog);
  }

  // --- beta level --------------------------------------------------------

  void beta_tests_for(const AnalyzedProduction& ap,
                      const ConditionElement& ce, int ce_index,
                      std::vector<EqTest>* eq_tests,
                      std::vector<BetaPred>* preds) {
    const SymbolId cls = intern(ce.cls);
    for (const FieldPattern& f : ce.fields) {
      if (!f.disjunction.empty()) continue;
      const std::uint16_t slot = program_.slot(cls, intern(f.attr));
      for (const TestAtom& atom : f.tests) {
        if (!atom.is_var) continue;
        const SymbolId var = intern(atom.var);
        const VarBinding& b = ap.bindings.at(var);
        if (b.ce_index == ce_index) continue;  // alpha-level or binding
        assert(b.token_pos >= 0 && "cross-CE use of negated-CE variable");
        if (atom.op == PredOp::Eq) {
          eq_tests->push_back(EqTest{static_cast<std::uint8_t>(b.token_pos),
                                     b.slot, slot});
        } else {
          preds->push_back(BetaPred{atom.op,
                                    static_cast<std::uint8_t>(b.token_pos),
                                    b.slot, slot});
        }
      }
    }
  }

  JoinNode* find_or_make_join(JoinKey key) {
    auto it = join_cache_.find(key);
    if (it != join_cache_.end()) return it->second;
    auto node = std::make_unique<JoinNode>();
    node->id = static_cast<std::uint32_t>(net_->joins_.size());
    node->kind = key.kind;
    node->eq_tests = key.eq_tests;
    node->preds = key.preds;
    JoinNode* raw = node.get();
    net_->joins_.push_back(std::move(node));
    join_cache_.emplace(std::move(key), raw);
    return raw;
  }

  void build_production(std::size_t prod_index) {
    const AnalyzedProduction& ap = program_.productions()[prod_index];
    const auto& lhs = ap.ast->lhs;

    auto terminal = std::make_unique<TerminalNode>();
    terminal->id = static_cast<std::uint32_t>(net_->terminals_.size());
    terminal->prod_index = static_cast<std::uint32_t>(prod_index);
    terminal->num_positive = static_cast<std::uint8_t>(ap.num_positive);
    TerminalNode* term = terminal.get();
    net_->terminals_.push_back(std::move(terminal));

    AlphaProgram* first_alpha = alpha_for(ap, lhs[0], 0);
    if (lhs.size() == 1) {
      first_alpha->terminal_dests.push_back(term);
      return;
    }

    JoinNode* prev = nullptr;  // previous join in the chain
    std::uint8_t positives_so_far = 1;
    for (std::size_t i = 1; i < lhs.size(); ++i) {
      const ConditionElement& ce = lhs[i];
      AlphaProgram* alpha = alpha_for(ap, ce, static_cast<int>(i));
      JoinKey key;
      key.parent = prev ? prev->id
                        : ~static_cast<std::uint64_t>(first_alpha->id);
      key.right_alpha = alpha->id;
      key.kind = ce.negated ? JoinKind::Negative : JoinKind::Positive;
      beta_tests_for(ap, ce, static_cast<int>(i), &key.eq_tests, &key.preds);

      const bool existed = join_cache_.count(key) > 0;
      JoinNode* join = find_or_make_join(std::move(key));
      join->left_len = positives_so_far;
      if (!existed) {
        // Wire the new join's inputs.
        if (prev) {
          prev->succs.push_back(Successor{join, Side::Left, nullptr});
        } else {
          first_alpha->dests.push_back(AlphaDest{join, Side::Left});
        }
        alpha->dests.push_back(AlphaDest{join, Side::Right});
      }
      prev = join;
      if (!ce.negated) ++positives_so_far;
    }
    prev->succs.push_back(Successor{nullptr, Side::Left, term});
  }

  const Program& program_;
  std::unique_ptr<Network> net_;
  std::map<JoinKey, JoinNode*> join_cache_;
};

std::unique_ptr<Network> build_network(const ops5::Program& program) {
  return Builder(program).build();
}

}  // namespace psme::rete
