#include "engine/treat_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/symbol_table.hpp"

namespace psme {

TreatEngine::TreatEngine(const ops5::Program& program, EngineOptions options)
    : EngineBase(program, options) {
  compile(program);
}

void TreatEngine::compile(const ops5::Program& program) {
  using ops5::PredOp;
  productions_.reserve(program.productions().size());
  for (std::size_t pi = 0; pi < program.productions().size(); ++pi) {
    const ops5::AnalyzedProduction& ap = program.productions()[pi];
    CompiledProduction cp;
    cp.index = static_cast<std::uint32_t>(pi);
    cp.num_positive = ap.num_positive;
    for (std::size_t ci = 0; ci < ap.ast->lhs.size(); ++ci) {
      const ops5::ConditionElement& ce = ap.ast->lhs[ci];
      CompiledCe cce;
      cce.negated = ce.negated;
      cce.cls = intern(ce.cls);
      cce.token_pos = ap.token_pos_of_ce[ci];
      for (const ops5::FieldPattern& f : ce.fields) {
        const std::uint16_t slot = program.slot(cce.cls, intern(f.attr));
        if (!f.disjunction.empty()) {
          rete::AlphaTest t;
          t.kind = rete::AlphaTestKind::Disjunction;
          t.slot = slot;
          t.disjuncts = f.disjunction;
          cce.alpha.push_back(std::move(t));
          continue;
        }
        for (const ops5::TestAtom& atom : f.tests) {
          if (!atom.is_var) {
            rete::AlphaTest t;
            t.kind = rete::AlphaTestKind::ConstPred;
            t.slot = slot;
            t.op = atom.op;
            t.constant = atom.constant;
            cce.alpha.push_back(std::move(t));
            continue;
          }
          const ops5::VarBinding& b = ap.bindings.at(intern(atom.var));
          const bool binds_here = b.ce_index == static_cast<int>(ci) &&
                                  b.slot == slot && atom.op == PredOp::Eq;
          if (binds_here) continue;
          if (b.ce_index == static_cast<int>(ci)) {
            rete::AlphaTest t;
            t.kind = rete::AlphaTestKind::SlotPred;
            t.slot = slot;
            t.op = atom.op;
            t.other_slot = b.slot;
            cce.alpha.push_back(std::move(t));
            continue;
          }
          assert(b.token_pos >= 0);
          if (atom.op == PredOp::Eq) {
            cce.eq_tests.push_back(
                rete::EqTest{static_cast<std::uint8_t>(b.token_pos), b.slot,
                             slot});
          } else {
            cce.preds.push_back(
                rete::BetaPred{atom.op,
                               static_cast<std::uint8_t>(b.token_pos),
                               b.slot, slot});
          }
        }
      }
      cp.ces.push_back(std::move(cce));
    }
    productions_.push_back(std::move(cp));
  }
}

bool TreatEngine::alpha_match(const CompiledCe& ce, const Wme* wme) {
  if (wme->cls != ce.cls) return false;
  for (const rete::AlphaTest& t : ce.alpha) {
    ++comparisons_;
    if (!rete::eval_alpha_test(t, wme->fields.data())) return false;
  }
  return true;
}

bool TreatEngine::consistent(const CompiledCe& ce, const Wme* wme,
                             const std::vector<const Wme*>& bound) {
  for (const rete::EqTest& eq : ce.eq_tests) {
    ++comparisons_;
    if (!(bound[eq.tok_pos]->field(eq.tok_slot) == wme->field(eq.wme_slot)))
      return false;
  }
  for (const rete::BetaPred& p : ce.preds) {
    ++comparisons_;
    if (!ops5::eval_pred(p.op, wme->field(p.wme_slot),
                         bound[p.tok_pos]->field(p.tok_slot)))
      return false;
  }
  return true;
}

bool TreatEngine::blocked(const CompiledCe& ce,
                          const std::vector<const Wme*>& bound) {
  for (const Wme* wme : ce.memory) {
    ++comparisons_;
    if (consistent(ce, wme, bound)) return true;
  }
  return false;
}

void TreatEngine::seek(CompiledProduction& prod, std::size_t ce_index,
                       int pinned_ce, const Wme* pinned_wme,
                       std::vector<const Wme*>& bound) {
  if (ce_index == prod.ces.size()) {
    // All positive CEs bound; negated CEs must be empty of blockers.
    for (const CompiledCe& ce : prod.ces) {
      if (ce.negated && blocked(ce, bound)) return;
    }
    if (!cs_.contains(prod.index, bound)) cs_.insert(prod.index, bound);
    return;
  }
  CompiledCe& ce = prod.ces[ce_index];
  if (ce.negated) {  // checked at the leaf
    seek(prod, ce_index + 1, pinned_ce, pinned_wme, bound);
    return;
  }
  const bool pinned = static_cast<int>(ce_index) == pinned_ce;
  if (pinned) {
    if (consistent(ce, pinned_wme, bound)) {
      bound.push_back(pinned_wme);
      seek(prod, ce_index + 1, pinned_ce, pinned_wme, bound);
      bound.pop_back();
    }
    return;
  }
  for (const Wme* wme : ce.memory) {
    if (!consistent(ce, wme, bound)) continue;
    bound.push_back(wme);
    seek(prod, ce_index + 1, pinned_ce, pinned_wme, bound);
    bound.pop_back();
  }
}

void TreatEngine::submit_change(const Wme* wme, std::int8_t sign) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  ctl_.stats.match.wme_changes += 1;

  if (sign > 0) {
    // Phase 1: admit the wme into every alpha memory it satisfies.
    std::vector<std::pair<CompiledProduction*, std::size_t>> hits;
    for (CompiledProduction& prod : productions_) {
      for (std::size_t ci = 0; ci < prod.ces.size(); ++ci) {
        if (!alpha_match(prod.ces[ci], wme)) continue;
        prod.ces[ci].memory.push_back(wme);
        hits.emplace_back(&prod, ci);
        ctl_.stats.match.node_activations += 1;
      }
    }
    // Phase 2: positive hits seek new instantiations; negated hits retract
    // the instantiations they now block.
    for (auto [prod, ci] : hits) {
      CompiledCe& ce = prod->ces[ci];
      if (!ce.negated) {
        std::vector<const Wme*> bound;
        bound.reserve(static_cast<std::size_t>(prod->num_positive));
        seek(*prod, 0, static_cast<int>(ci), wme, bound);
      } else {
        for (const Instantiation& inst : cs_.snapshot()) {
          if (inst.prod_index != prod->index) continue;
          if (consistent(ce, wme, inst.wmes))
            cs_.remove(prod->index, inst.wmes);
        }
      }
    }
  } else {
    // Deletion: purge the wme from alpha memories, drop every
    // instantiation referencing it, then re-seek productions whose negated
    // CEs lost a blocker.
    std::vector<CompiledProduction*> reseek;
    for (CompiledProduction& prod : productions_) {
      bool negated_hit = false;
      for (CompiledCe& ce : prod.ces) {
        auto it = std::find(ce.memory.begin(), ce.memory.end(), wme);
        if (it == ce.memory.end()) continue;
        ce.memory.erase(it);
        ctl_.stats.match.node_activations += 1;
        if (ce.negated) negated_hit = true;
      }
      if (negated_hit) reseek.push_back(&prod);
    }
    cs_.remove_containing(wme);
    for (CompiledProduction* prod : reseek) {
      std::vector<const Wme*> bound;
      bound.reserve(static_cast<std::size_t>(prod->num_positive));
      seek(*prod, 0, /*pinned_ce=*/-1, nullptr, bound);
    }
  }
  ctl_.stats.match_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace psme
