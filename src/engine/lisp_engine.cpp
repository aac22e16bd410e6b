#include "engine/lisp_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/symbol_table.hpp"

namespace psme {

LispStyleEngine::LispStyleEngine(const ops5::Program& program,
                                 EngineOptions options)
    : EngineBase(program, options) {
  memories_.resize(network().joins().size());
  compile_tests();
}

// --- s-expression machinery -------------------------------------------------

LispStyleEngine::CellP LispStyleEngine::cons(CellP car, CellP cdr) {
  auto c = std::make_shared<Cell>();
  c->t = Cell::T::Pair;
  c->car = std::move(car);
  c->cdr = std::move(cdr);
  return c;
}

LispStyleEngine::CellP LispStyleEngine::box(const Value& v) {
  auto c = std::make_shared<Cell>();
  c->t = Cell::T::Val;
  c->val = v;
  return c;
}

LispStyleEngine::CellP LispStyleEngine::list3(CellP a, CellP b, CellP c) {
  return cons(std::move(a), cons(std::move(b), cons(std::move(c), nullptr)));
}

LispStyleEngine::CellP LispStyleEngine::compile_arg_wslot(std::uint16_t slot) {
  return cons(box(sym("wslot")), cons(box(Value::integer(slot)), nullptr));
}

LispStyleEngine::CellP LispStyleEngine::compile_arg_tslot(std::uint8_t pos,
                                                          std::uint16_t slot) {
  return cons(box(sym("tslot")),
              cons(box(Value::integer(pos)),
                   cons(box(Value::integer(slot)), nullptr)));
}

void LispStyleEngine::compile_tests() {
  auto quote_arg = [](const Value& v) {
    return cons(box(sym("quote")), cons(box(v), nullptr));
  };
  auto op_sym = [](ops5::PredOp op) { return box(sym(ops5::pred_name(op))); };

  alpha_exprs_.resize(network().alphas().size());
  for (const auto& prog : network().alphas()) {
    CompiledAlpha& ca = alpha_exprs_[prog->id];
    for (const rete::AlphaTest& t : prog->tests) {
      switch (t.kind) {
        case rete::AlphaTestKind::ConstPred:
          ca.tests.push_back(list3(op_sym(t.op), compile_arg_wslot(t.slot),
                                   quote_arg(t.constant)));
          break;
        case rete::AlphaTestKind::SlotPred:
          ca.tests.push_back(list3(op_sym(t.op), compile_arg_wslot(t.slot),
                                   compile_arg_wslot(t.other_slot)));
          break;
        case rete::AlphaTestKind::Disjunction:
          ca.disjunction_slots.push_back(t.slot);
          ca.disjunctions.push_back(t.disjuncts);
          break;
      }
    }
  }

  join_exprs_.resize(network().joins().size());
  for (const auto& j : network().joins()) {
    CompiledJoin& cj = join_exprs_[j->id];
    for (const rete::EqTest& eq : j->eq_tests) {
      cj.tests.push_back(list3(op_sym(ops5::PredOp::Eq),
                               compile_arg_tslot(eq.tok_pos, eq.tok_slot),
                               compile_arg_wslot(eq.wme_slot)));
    }
    for (const rete::BetaPred& p : j->preds) {
      cj.tests.push_back(list3(op_sym(p.op), compile_arg_wslot(p.wme_slot),
                               compile_arg_tslot(p.tok_pos, p.tok_slot)));
    }
  }
}

LispStyleEngine::CellP LispStyleEngine::eval_arg(const CellP& arg,
                                                 const Wme* w,
                                                 const LToken* t) {
  // arg = (kind payload...); dispatch by comparing the kind symbol against
  // an alist of argument kinds, as an interpreter would.
  static const SymbolId kWslot = intern("wslot");
  static const SymbolId kTslot = intern("tslot");
  static const SymbolId kQuote = intern("quote");
  const SymbolId kind = arg->car->val.as_symbol();
  if (kind == kWslot) {
    const auto slot =
        static_cast<std::uint16_t>(arg->cdr->car->val.as_int());
    return box(field(w, slot));  // fresh box: interpreters cons
  }
  if (kind == kTslot) {
    const auto pos = static_cast<std::size_t>(arg->cdr->car->val.as_int());
    const auto slot =
        static_cast<std::uint16_t>(arg->cdr->cdr->car->val.as_int());
    return box(field((*t)[pos], slot));
  }
  if (kind == kQuote) return box(arg->cdr->car->val);
  return box(Value::nil());
}

bool LispStyleEngine::eval_test(const CellP& expr, const Wme* w,
                                const LToken* t) {
  // Resolve the operator by scanning an operator alist (lisp assq).
  struct OpEntry {
    SymbolId name;
    ops5::PredOp op;
  };
  static const std::vector<OpEntry> ops = [] {
    std::vector<OpEntry> v;
    for (const ops5::PredOp op :
         {ops5::PredOp::Eq, ops5::PredOp::Ne, ops5::PredOp::Lt,
          ops5::PredOp::Le, ops5::PredOp::Gt, ops5::PredOp::Ge,
          ops5::PredOp::SameType}) {
      v.push_back({intern(ops5::pred_name(op)), op});
    }
    return v;
  }();
  const SymbolId op_name = expr->car->val.as_symbol();
  ops5::PredOp op = ops5::PredOp::Eq;
  for (const OpEntry& e : ops) {
    if (e.name == op_name) {
      op = e.op;
      break;
    }
  }
  const CellP a = eval_arg(expr->cdr->car, w, t);
  const CellP b = eval_arg(expr->cdr->cdr->car, w, t);
  return ops5::eval_pred(op, a->val, b->val);
}

const Value& LispStyleEngine::field(const Wme* wme, std::uint16_t slot) {
  // Linear assq over the wme's association list, as the lisp matcher did.
  const PList& plist = plists_.at(wme);
  const SymbolId attr =
      program().class_of(wme->cls).slot_attrs[slot];
  for (const auto& [key, box] : plist) {
    if (key == attr) return *box;
  }
  static const Value nil = Value::nil();
  return nil;
}

bool LispStyleEngine::alpha_pass(const rete::AlphaProgram& prog,
                                 const Wme* wme) {
  const CompiledAlpha& ca = alpha_exprs_[prog.id];
  for (const CellP& expr : ca.tests) {
    if (!eval_test(expr, wme, nullptr)) return false;
  }
  for (std::size_t d = 0; d < ca.disjunctions.size(); ++d) {
    bool any = false;
    for (const Value& v : ca.disjunctions[d]) {
      const CellP boxed = box(field(wme, ca.disjunction_slots[d]));
      if (boxed->val == v) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

bool LispStyleEngine::beta_match(const rete::JoinNode* j, const LToken& t,
                                 const Wme* w) {
  for (const CellP& expr : join_exprs_[j->id].tests) {
    if (!eval_test(expr, w, &t)) return false;
  }
  return true;
}

void LispStyleEngine::emit(const rete::JoinNode* j, const LToken& token,
                           std::int8_t sign) {
  ctl_.stats.match.emissions += 1;
  for (const rete::Successor& s : j->succs) {
    if (s.terminal) {
      terminal_activate(s.terminal, token, sign);
    } else {
      left_activate(s.join, token, sign);
    }
  }
}

void LispStyleEngine::terminal_activate(const rete::TerminalNode* t,
                                        const LToken& token,
                                        std::int8_t sign) {
  ctl_.stats.match.node_activations += 1;
  ctl_.stats.match.tasks_executed += 1;
  if (sign > 0) {
    cs_.insert(t->prod_index, token);
  } else {
    cs_.remove(t->prod_index, token);
  }
}

void LispStyleEngine::left_activate(const rete::JoinNode* j,
                                    const LToken& token, std::int8_t sign) {
  ctl_.stats.match.node_activations += 1;
  ctl_.stats.match.tasks_executed += 1;
  JoinMemory& mem = memories_[j->id];
  const int si = side_index(Side::Left);

  if (j->kind == rete::JoinKind::Positive) {
    if (sign > 0) {
      mem.left.push_back(token);  // cons a fresh copy into the memory
    } else {
      std::uint32_t examined = 0;
      for (auto it = mem.left.begin(); it != mem.left.end(); ++it) {
        ++examined;
        if (*it == token) {
          mem.left.erase(it);
          break;
        }
      }
      if (examined > 0) {
        ctl_.stats.match.same_del_examined[si] += examined;
        ctl_.stats.match.same_del_activations[si] += 1;
      }
    }
    std::uint32_t examined = 0;
    for (const Wme* w : mem.right) {
      ++examined;
      if (!beta_match(j, token, w)) continue;
      LToken extended = token;  // cons
      extended.push_back(w);
      emit(j, extended, sign);
    }
    if (examined > 0) {
      ctl_.stats.match.opp_examined[si] += examined;
      ctl_.stats.match.opp_activations[si] += 1;
    }
    return;
  }

  // Negative node.
  if (sign > 0) {
    int count = 0;
    std::uint32_t examined = 0;
    for (const Wme* w : mem.right) {
      ++examined;
      if (beta_match(j, token, w)) ++count;
    }
    if (examined > 0) {
      ctl_.stats.match.opp_examined[si] += examined;
      ctl_.stats.match.opp_activations[si] += 1;
    }
    mem.neg_left.push_back(NegEntry{token, count});
    if (count == 0) emit(j, token, +1);
  } else {
    std::uint32_t examined = 0;
    for (auto it = mem.neg_left.begin(); it != mem.neg_left.end(); ++it) {
      ++examined;
      if (it->token == token) {
        const bool was_passing = it->count == 0;
        mem.neg_left.erase(it);
        if (was_passing) emit(j, token, -1);
        break;
      }
    }
    if (examined > 0) {
      ctl_.stats.match.same_del_examined[si] += examined;
      ctl_.stats.match.same_del_activations[si] += 1;
    }
  }
}

void LispStyleEngine::right_activate(const rete::JoinNode* j, const Wme* wme,
                                     std::int8_t sign) {
  ctl_.stats.match.node_activations += 1;
  ctl_.stats.match.tasks_executed += 1;
  JoinMemory& mem = memories_[j->id];
  const int si = side_index(Side::Right);

  if (sign > 0) {
    mem.right.push_back(wme);
  } else {
    std::uint32_t examined = 0;
    for (auto it = mem.right.begin(); it != mem.right.end(); ++it) {
      ++examined;
      if (*it == wme) {
        mem.right.erase(it);
        break;
      }
    }
    if (examined > 0) {
      ctl_.stats.match.same_del_examined[si] += examined;
      ctl_.stats.match.same_del_activations[si] += 1;
    }
  }

  if (j->kind == rete::JoinKind::Positive) {
    std::uint32_t examined = 0;
    for (const LToken& t : mem.left) {
      ++examined;
      if (!beta_match(j, t, wme)) continue;
      LToken extended = t;  // cons
      extended.push_back(wme);
      emit(j, extended, sign);
    }
    if (examined > 0) {
      ctl_.stats.match.opp_examined[si] += examined;
      ctl_.stats.match.opp_activations[si] += 1;
    }
    return;
  }

  // Negative node: adjust counts on 0<->1 transitions.
  std::uint32_t examined = 0;
  for (NegEntry& e : mem.neg_left) {
    ++examined;
    if (!beta_match(j, e.token, wme)) continue;
    if (sign > 0) {
      if (e.count++ == 0) emit(j, e.token, -1);
    } else {
      if (--e.count == 0) emit(j, e.token, +1);
    }
  }
  if (examined > 0) {
    ctl_.stats.match.opp_examined[si] += examined;
    ctl_.stats.match.opp_activations[si] += 1;
  }
}

void LispStyleEngine::submit_change(const Wme* wme, std::int8_t sign) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  ctl_.stats.match.wme_changes += 1;
  ctl_.stats.match.node_activations += 1;  // the root/alpha activation group
  ctl_.stats.match.tasks_executed += 1;

  if (sign > 0) {
    // Box the wme into an association list (the lisp representation).
    PList plist;
    const ops5::ClassInfo& info = program().class_of(wme->cls);
    plist.reserve(wme->fields.size());
    for (std::size_t s = 0; s < wme->fields.size(); ++s) {
      plist.emplace_back(info.slot_attrs[s],
                         std::make_unique<Value>(wme->fields[s]));
    }
    plists_.emplace(wme, std::move(plist));
  }

  const auto* alphas = network().alphas_for_class(wme->cls);
  if (alphas) {
    for (const rete::AlphaProgram* prog : *alphas) {
      if (!alpha_pass(*prog, wme)) continue;
      LToken unit{wme};
      for (const rete::AlphaDest& dest : prog->dests) {
        if (dest.side == Side::Right) {
          right_activate(dest.join, wme, sign);
        } else {
          left_activate(dest.join, unit, sign);
        }
      }
      for (const rete::TerminalNode* term : prog->terminal_dests)
        terminal_activate(term, unit, sign);
    }
  }

  if (sign < 0) plists_.erase(wme);
  ctl_.stats.match_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace psme
