#include "engine/control.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <tuple>

#include "common/symbol_table.hpp"
#include "ops5/parser.hpp"
#include "rete/builder.hpp"

namespace psme {

ProgramImage::ProgramImage(const ops5::Program& program)
    : program(program), network(rete::build_network(program)) {
  rhs.reserve(program.productions().size());
  for (const auto& prod : program.productions())
    rhs.push_back(compile_rhs(program, prod));
}

namespace {

// The RHS side of one firing: every WM change prints at watch level 2 and
// goes to the backend's Submit; `write` and `halt` act on the session.
class Effects final : public RhsEffects {
 public:
  Effects(Control& ctl, const ops5::Program& program,
          const EngineOptions& options, const Control::Submit& submit)
      : ctl_(ctl), program_(program), options_(options), submit_(submit) {}
  void on_make(const Wme* wme) override { change("=>WM: ", wme, +1); }
  void on_remove(const Wme* wme) override { change("<=WM: ", wme, -1); }
  void on_write(const std::string& text) override {
    if (options_.out) *options_.out << text;
  }
  void on_halt() override { ctl_.halted = true; }

 private:
  void change(const char* arrow, const Wme* wme, std::int8_t sign) {
    if (options_.watch >= 2 && options_.out)
      *options_.out << ctl_.watch_prefix << arrow << wme->timetag << ": "
                    << wme_to_string(*wme, program_) << "\n";
    submit_(wme, sign);
  }

  Control& ctl_;
  const ops5::Program& program_;
  const EngineOptions& options_;
  const Control::Submit& submit_;
};

}  // namespace

void Control::reset(const ops5::Program& program, std::uint64_t cap) {
  wm = std::make_unique<WorkingMemory>(program);
  trace.clear();
  stats = RunStats{};
  halted = false;
  max_cycles = cap;
  last_reason = StopReason::EmptyConflictSet;
  pending.clear();
  restored_fired.clear();
}

const Wme* Control::make(std::string_view wme_literal) {
  const ops5::WmeLiteral lit = ops5::parse_wme_literal(wme_literal);
  std::vector<std::pair<SymbolId, Value>> fields;
  fields.reserve(lit.fields.size());
  for (const auto& [attr, value] : lit.fields)
    fields.emplace_back(intern(attr), value);
  return make(intern(lit.cls), fields);
}

const Wme* Control::make(
    SymbolId cls, const std::vector<std::pair<SymbolId, Value>>& fields) {
  const Wme* wme = wm->make(cls, wm->build_fields(cls, fields));
  pending.emplace_back(wme, +1);
  return wme;
}

void Control::remove(TimeTag tag) {
  const Wme* wme = wm->find(tag);
  if (!wme) throw std::invalid_argument("remove: no live wme with timetag");
  pending.emplace_back(wme, -1);
  wm->remove(wme);
}

void Control::submit_pending(const Submit& submit) {
  for (const auto& [wme, sign] : pending) submit(wme, sign);
  pending.clear();
}

bool Control::stopped() {
  if (halted)
    last_reason = StopReason::Halt;
  else if (stats.cycles >= max_cycles)
    last_reason = StopReason::MaxCycles;
  else
    return false;
  return true;
}

void Control::fire(const ProgramImage& image, const EngineOptions& options,
                   const Instantiation& inst, const Submit& submit) {
  ++stats.cycles;
  ++stats.firings;
  FiringRecord rec;
  rec.prod_index = inst.prod_index;
  rec.timetags = inst.tags_in_order();
  if (options.watch >= 1 && options.out) {
    *options.out << watch_prefix << stats.cycles << ". "
                 << symbol_name(
                        image.program.productions()[inst.prod_index].name);
    for (const TimeTag t : rec.timetags) *options.out << " " << t;
    *options.out << "\n";
  }
  trace.push_back(std::move(rec));
  Effects fx(*this, image.program, options, submit);
  run_rhs(image.rhs[inst.prod_index], image.program, inst.wmes, *wm, fx);
}

bool Control::cycle(const ProgramImage& image, const EngineOptions& options,
                    ConflictSet& cs, const Submit& submit) {
  if (stopped()) return false;
  const auto inst = cs.select_and_fire(options.strategy);
  if (!inst) {
    last_reason = StopReason::EmptyConflictSet;
    return false;
  }
  fire(image, options, *inst, submit);
  return true;
}

EngineSnapshot Control::snapshot(std::vector<FiringRecord> fired) const {
  EngineSnapshot snap;
  snap.next_timetag = wm->last_timetag() + 1;
  for (const Wme* w : wm->snapshot())
    snap.wmes.push_back({w->timetag, w->cls, w->fields});
  std::sort(fired.begin(), fired.end(),
            [](const FiringRecord& a, const FiringRecord& b) {
              return std::tie(a.prod_index, a.timetags) <
                     std::tie(b.prod_index, b.timetags);
            });
  snap.fired = std::move(fired);
  snap.trace = trace;
  snap.cycles = stats.cycles;
  snap.halted = halted;
  return snap;
}

EngineSnapshot Control::snapshot(const ConflictSet& cs) const {
  std::vector<FiringRecord> fired;
  for (const Instantiation& inst : cs.snapshot())
    if (inst.fired) fired.push_back({inst.prod_index, inst.tags_in_order()});
  return snapshot(std::move(fired));
}

void Control::restore(const EngineSnapshot& snap) {
  if (wm->size() != 0 || !trace.empty() || stats.cycles != 0)
    throw std::logic_error("restore: session is not fresh (reset first)");
  for (const WmeSnapshot& w : snap.wmes)
    pending.emplace_back(wm->make_with_tag(w.timetag, w.cls, w.fields), +1);
  wm->set_next_tag(snap.next_timetag);
  restored_fired = snap.fired;
  trace = snap.trace;
  stats.cycles = snap.cycles;
  stats.firings = snap.cycles;
  halted = snap.halted;
}

void Control::quiesced(ConflictSet& cs) {
  wm->collect();
  for (const FiringRecord& rec : restored_fired)
    cs.mark_fired(rec.prod_index, rec.timetags);
  restored_fired.clear();
}

}  // namespace psme
