#include "serve/session.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "common/symbol_table.hpp"
#include "ops5/parser.hpp"
#include "rr/session_rr.hpp"
#include "serve/checkpoint.hpp"

namespace psme::serve {

namespace {

std::string trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(first, last - first + 1));
}

// Splits "verb rest..." at the first whitespace run.
std::pair<std::string, std::string> split_verb(const std::string& line) {
  const auto sp = line.find_first_of(" \t");
  if (sp == std::string::npos) return {line, ""};
  return {line.substr(0, sp), trim(line.substr(sp + 1))};
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  const char* b = s.data();
  const char* e = b + s.size();
  const auto [ptr, ec] = std::from_chars(b, e, *out);
  return ec == std::errc() && ptr == e;
}

const char* reason_name(StopReason r) {
  switch (r) {
    case StopReason::Halt: return "halt";
    case StopReason::EmptyConflictSet: return "empty";
    case StopReason::MaxCycles: return "max-cycles";
  }
  return "?";
}

Response ok(std::string text) { return {true, std::move(text)}; }
Response err(std::string text) { return {false, std::move(text)}; }

// Engine-per-session backend: one slot, an owned Engine of any execution
// mode. Reset builds a fresh Engine of the same mode.
class EngineSlot final : public SessionBackend {
 public:
  EngineSlot(const ops5::Program& program, EngineConfig config)
      : program_(program), config_(config) {
    reset_session(0);
  }
  const Engine& engine() const { return *engine_; }

  const Wme* make(std::uint32_t, std::string_view wme_literal) override {
    return engine_->make(wme_literal);
  }
  const Wme* make(
      std::uint32_t, SymbolId cls,
      const std::vector<std::pair<SymbolId, Value>>& fields) override {
    return engine_->make(cls, fields);
  }
  void remove(std::uint32_t, TimeTag tag) override { engine_->remove(tag); }
  const Control& control(std::uint32_t) const override {
    return engine_->base().control();
  }
  void set_max_cycles(std::uint32_t, std::uint64_t n) override {
    engine_->base().set_max_cycles(n);
  }
  RunResult run_session(std::uint32_t) override { return engine_->run(); }
  EngineSnapshot snapshot_session(std::uint32_t) override {
    return engine_->base().snapshot_state();
  }
  void reset_session(std::uint32_t) override {
    engine_ = std::make_unique<Engine>(program_, config_);
  }
  void restore_session(std::uint32_t, const EngineSnapshot& snap) override {
    engine_->base().restore_state(snap);
  }

 private:
  const ops5::Program& program_;
  EngineConfig config_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace

Session::Session(const ops5::Program& program, EngineConfig config)
    : program_(program),
      backend_(std::make_shared<EngineSlot>(program, config)) {}

Session::Session(const ops5::Program& program, SessionBackend* backend,
                 std::uint32_t slot)
    : program_(program), backend_(backend, [](SessionBackend*) {}),
      slot_(slot) {
  backend->check_slot(slot);
}

const psme::Engine* Session::engine() const {
  const auto* owned = dynamic_cast<const EngineSlot*>(backend_.get());
  return owned ? &owned->engine() : nullptr;
}

Response Session::execute(const std::string& line, Deadline deadline) {
  ++requests_;
  Response r;
  try {
    r = dispatch(trim(line), deadline);
  } catch (const std::exception& e) {
    r = err(std::string("exception: ") + e.what());
  }
  if (transcript_) transcript_->entries.push_back({line, r.ok, r.text});
  return r;
}

Response Session::dispatch(const std::string& line, Deadline deadline) {
  if (line.empty()) return err("empty command");
  if (std::chrono::steady_clock::now() > deadline)
    return err("deadline before execution");
  const auto [verb, args] = split_verb(line);
  if (verb == "make") return cmd_make(args);
  if (verb == "modify") return cmd_modify(args);
  if (verb == "remove") return cmd_remove(args);
  if (verb == "run") return cmd_run(args, deadline);
  if (verb == "dump") return cmd_dump();
  if (verb == "trace") return cmd_trace();
  if (verb == "stats") return cmd_stats();
  if (verb == "checkpoint") return cmd_checkpoint();
  if (verb == "restore") return cmd_restore(args);
  return err("unknown command " + verb);
}

Response Session::cmd_make(const std::string& args) {
  const Wme* wme = backend_->make(slot_, args);
  return ok(std::to_string(wme->timetag));
}

Response Session::cmd_modify(const std::string& args) {
  const auto [tag_str, updates] = split_verb(args);
  std::uint64_t tag = 0;
  if (!parse_u64(tag_str, &tag)) return err("modify: bad timetag");
  const Wme* old = control().wm->find(tag);
  if (!old) return err("modify: no live wme " + tag_str);
  if (updates.empty()) return err("modify: no field updates");

  // Parse "^attr value ..." by borrowing the wme-literal parser, then lay
  // the updates over a copy of the old wme's slots.
  const std::string cls_name = symbol_name(old->cls);
  const ops5::WmeLiteral lit =
      ops5::parse_wme_literal("(" + cls_name + " " + updates + ")");
  std::vector<Value> fields = old->fields;
  const ops5::ClassInfo& info = program_.class_of(old->cls);
  for (const auto& [attr, value] : lit.fields) {
    auto it = info.slots.find(intern(attr));
    if (it == info.slots.end())
      return err("modify: class " + cls_name + " has no attribute " + attr);
    fields[it->second] = value;
  }
  std::vector<std::pair<SymbolId, Value>> pairs;
  for (std::size_t slot = 0; slot < fields.size(); ++slot)
    if (!fields[slot].is_nil())
      pairs.emplace_back(info.slot_attrs[slot], fields[slot]);

  // OPS5 modify is remove + make (fresh timetag).
  backend_->remove(slot_, tag);
  const Wme* wme = backend_->make(slot_, old->cls, pairs);
  return ok(std::to_string(wme->timetag));
}

Response Session::cmd_remove(const std::string& args) {
  std::uint64_t tag = 0;
  if (!parse_u64(args, &tag)) return err("remove: bad timetag");
  if (!control().wm->find(tag)) return err("remove: no live wme " + args);
  backend_->remove(slot_, tag);
  return ok(args);
}

Response Session::cmd_run(const std::string& args, Deadline deadline) {
  std::uint64_t budget = 0;
  const bool bounded = !args.empty();
  if (bounded && !parse_u64(args, &budget)) return err("run: bad cycle count");

  const std::uint64_t start = control().stats.cycles;
  const std::uint64_t target =
      bounded ? start + budget : std::numeric_limits<std::uint64_t>::max();
  StopReason reason = StopReason::MaxCycles;
  for (;;) {
    const std::uint64_t cur = control().stats.cycles;
    if (cur >= target) break;
    backend_->set_max_cycles(slot_, std::min(target, cur + kRunSlice));
    reason = backend_->run_session(slot_).reason;
    if (reason != StopReason::MaxCycles) break;  // halt / empty conflict set
    if (control().stats.cycles >= target) break;
    if (std::chrono::steady_clock::now() > deadline) {
      const std::uint64_t done = control().stats.cycles;
      return err("deadline cycles=" + std::to_string(done - start) +
                 " total=" + std::to_string(done));
    }
  }
  const std::uint64_t total = control().stats.cycles;
  return ok("cycles=" + std::to_string(total - start) +
            " total=" + std::to_string(total) +
            " reason=" + reason_name(reason));
}

Response Session::cmd_dump() const {
  const auto wmes = control().wm->snapshot();
  std::ostringstream out;
  out << wmes.size();
  for (const Wme* w : wmes)
    out << "\n" << w->timetag << ": " << wme_to_string(*w, program_);
  return ok(out.str());
}

Response Session::cmd_trace() const {
  const auto& trace = this->trace();
  std::ostringstream out;
  out << trace.size();
  for (const FiringRecord& rec : trace) {
    out << "\n" << symbol_name(program_.productions()[rec.prod_index].name);
    for (const TimeTag t : rec.timetags) out << " " << t;
  }
  return ok(out.str());
}

Response Session::cmd_stats() const {
  const RunStats& s = control().stats;
  return ok("cycles=" + std::to_string(s.cycles) +
            " firings=" + std::to_string(s.firings) +
            " wm=" + std::to_string(control().wm->size()));
}

Response Session::cmd_checkpoint() const {
  return ok(Checkpoint::capture(program_, backend_->snapshot_session(slot_))
                .serialize());
}

Response Session::cmd_restore(const std::string& args) {
  if (args.empty()) return err("restore: missing checkpoint JSON");
  // The checkpoint may come from any engine mode, world or shard topology;
  // verify its fingerprint before emptying the slot.
  const Checkpoint ckpt = Checkpoint::deserialize(args);
  ckpt.verify(program_);
  backend_->reset_session(slot_);
  backend_->restore_session(slot_, ckpt.snapshot);
  return ok(std::to_string(ckpt.snapshot.cycles));
}

}  // namespace psme::serve
