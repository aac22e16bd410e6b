// LispStyleEngine: a faithful stand-in for the Franz Lisp OPS5 interpreter,
// the baseline of the paper's Table 4-4.
//
// It computes exactly the same match as the compiled engines (same network,
// same conflict set), but through the overhead categories the paper's
// C implementation eliminated:
//  - every node activation is an interpretive, recursive walk with dynamic
//    dispatch (no compiled test programs);
//  - wme fields are accessed through per-wme association lists (lisp
//    `assq`-style linear search), with each value freshly boxed on the heap;
//  - memory nodes hold std::list chains of token *copies* — extending a
//    match conses a new list, as the lisp matcher did;
//  - memories are per-node linear lists (no hashing), like the distributed
//    lisp implementation;
//  - every node test is represented as an s-expression of cons cells and
//    evaluated by a small recursive interpreter: operands are fetched
//    through the association lists, boxed into fresh heap cells, and the
//    operator is resolved by scanning an operator alist — the per-test
//    interpretive overhead the paper's compiled network eliminates.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/engine_base.hpp"

namespace psme {

class LispStyleEngine : public EngineBase {
 public:
  LispStyleEngine(const ops5::Program& program, EngineOptions options);

  const MatchStats& match_stats() const { return ctl_.stats.match; }

 protected:
  void submit_change(const Wme* wme, std::int8_t sign) override;
  void wait_quiescent() override {}  // submit_change matches to fixpoint

 private:
  // A boxed value cell (lisp heap object).
  using Box = std::unique_ptr<Value>;
  // Association list: (attr . value) pairs, searched linearly.
  using PList = std::vector<std::pair<SymbolId, Box>>;
  // A lisp token: a freshly-consed list of wmes.
  using LToken = std::vector<const Wme*>;

  // --- s-expression test interpreter --------------------------------------
  // Node tests are compiled (once) into cons-cell expressions of the form
  //   (op arg-a arg-b)   with arg := (wslot n) | (tslot p n) | (quote v)
  // and evaluated interpretively against the current wme/token.
  struct Cell;
  using CellP = std::shared_ptr<Cell>;
  struct Cell {
    enum class T : std::uint8_t { Nil, Val, Pair } t = T::Nil;
    Value val;      // boxed value (numbers, symbols)
    CellP car, cdr;
  };
  static CellP cons(CellP car, CellP cdr);
  static CellP box(const Value& v);
  static CellP list3(CellP a, CellP b, CellP c);
  CellP compile_arg_wslot(std::uint16_t slot);
  CellP compile_arg_tslot(std::uint8_t pos, std::uint16_t slot);
  // Fetch + box an operand; `w` is the right wme, `t` the left token.
  CellP eval_arg(const CellP& arg, const Wme* w, const LToken* t);
  bool eval_test(const CellP& expr, const Wme* w, const LToken* t);

  struct CompiledJoin {
    std::vector<CellP> tests;  // eq tests + predicates, interpreted
  };
  struct CompiledAlpha {
    std::vector<CellP> tests;
    std::vector<std::vector<Value>> disjunctions;  // slot handled in expr
    std::vector<std::uint16_t> disjunction_slots;
  };
  void compile_tests();

  struct NegEntry {
    LToken token;
    int count = 0;
  };
  struct JoinMemory {
    std::list<LToken> left;
    std::list<const Wme*> right;
    std::list<NegEntry> neg_left;  // negative nodes use this instead of left
  };

  // assq-style field access through the wme's association list.
  const Value& field(const Wme* wme, std::uint16_t slot);
  bool alpha_pass(const rete::AlphaProgram& prog, const Wme* wme);
  bool beta_match(const rete::JoinNode* j, const LToken& t, const Wme* w);

  void left_activate(const rete::JoinNode* j, const LToken& token,
                     std::int8_t sign);
  void right_activate(const rete::JoinNode* j, const Wme* wme,
                      std::int8_t sign);
  void emit(const rete::JoinNode* j, const LToken& token, std::int8_t sign);
  void terminal_activate(const rete::TerminalNode* t, const LToken& token,
                         std::int8_t sign);

  std::unordered_map<const Wme*, PList> plists_;
  std::vector<JoinMemory> memories_;      // by join id
  std::vector<CompiledJoin> join_exprs_;  // by join id
  std::vector<CompiledAlpha> alpha_exprs_;  // by alpha id
};

}  // namespace psme
