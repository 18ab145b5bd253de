// script_session — what `hpflint --cost --exec` does, one whole session per
// op, over a pool of seeded directive scripts (50-150 lines, 8-16
// processors): DISTRIBUTE, ALIGN, DYNAMIC with REDISTRIBUTE flip-flops,
// SHADOW, section assignments, CALLs with the §7 dummy modes,
// CHECKPOINT/RESTORE, FAULTS with nonzero probability and, in some scripts,
// a FAIL_PROC directly after a CHECKPOINT.
//
// Each op parses, lints, cost-predicts, and runs the script on a fresh
// ProgramState attached to one PlanService shared across sessions. Data
// moves here: remaps, call copies, cold charge walks, cross-session L2
// hits, recovery and the front end all run. A gain on the warm read path
// that costs remaps, cold pricing or analysis shows up as a loss here.
#include <cstring>
#include <fstream>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "counts.hpp"
#include "core/processors.hpp"
#include "directives/interp.hpp"
#include "directives/parser.hpp"
#include "exec/storage.hpp"
#include "harness.hpp"
#include "model.hpp"
#include "service/plan_service.hpp"

namespace hpfbench {
namespace {

using namespace hpfnt;

constexpr int kPoolSize = 16;

/// Everything one session produced that its check needs.
struct Session {
  analysis::CostReport cost;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ProcessorSpace> space;
  std::unique_ptr<ProgramState> state;
  std::unique_ptr<dir::Interpreter> interp;
  int lint_errors = 0;
  bool ran = false;

  /// Tears down in dependency order (the interpreter and state reference
  /// the space and machine), which member-wise assignment would not.
  void reset() {
    interp.reset();
    state.reset();
    space.reset();
    machine.reset();
    ran = false;
  }
};

class ScriptSession final : public Workload {
 public:
  explicit ScriptSession(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    {
      Span span("bench.generate");
      for (int i = 0; i < kPoolSize; ++i) {
        pool_.push_back(generate_script(seed_, i));
      }
    }
    {
      Span span("bench.reference");
      for (const Script& s : pool_) refs_.push_back(run_reference(s));
    }
    // Priming: every script once, so the shared service starts warm; each
    // priming session is checked and counted like a timed one.
    Span span("exec.prime");
    for (int i = 0; i < kPoolSize; ++i) {
      Session session;
      bool ok = true;
      try {
        session = run_session(pool_[static_cast<std::size_t>(i)]);
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok || !check(i, session)) ++setup_failures_;
      tally(session);
    }
  }

  std::int64_t run_op(std::int64_t i) override {
    last_.reset();
    last_ = run_session(script_of(i));
    std::int64_t elements = 0;
    for (const dir::AssignExec& a : last_.interp->assigns()) {
      elements += a.result.elements;
    }
    return elements;
  }

  bool check_op(std::int64_t i) override {
    const bool ok = last_.ran && check(static_cast<int>(i % kPoolSize), last_);
    tally(last_);
    return ok;
  }

  std::int64_t count_window() const override { return kPoolSize; }

  void snapshot_counts() override {
    counts_ = totals_;
    add_l1_hit_rate(counts_);
    add_service_counts(service_, counts_);
  }

  std::int64_t verify(std::int64_t /*ops*/) override {
    return setup_failures_;  // every session was checked as it ran
  }

  void layer_metrics(const Tracer& tracer, std::vector<Metric>& out) override {
    for (const auto& [name, value] : counts_) {
      set_metric(out, name, value, count_window());
    }
    const auto samples = [&](const char* name) -> std::int64_t {
      const Tracer::Layer* l = tracer.layer(name);
      return l ? l->count : 0;
    };
    set_metric(out, "directives.parse_us", tracer.median_us("directives.parse"),
               samples("directives.parse"));
    set_metric(out, "directives.run_us", tracer.median_us("directives.run"),
               samples("directives.run"));
    set_metric(out, "analysis.lint_us", tracer.median_us("analysis.lint"),
               samples("analysis.lint"));
    set_metric(out, "analysis.cost_us", tracer.median_us("analysis.cost"),
               samples("analysis.cost"));
    double lines = 0.0;
    for (const Script& s : pool_) lines += static_cast<double>(s.lines);
    set_metric(out, "directives.lines", lines / kPoolSize, kPoolSize);
    set_metric(out, "exec.pricing_warm_us",
               warm_pricing_ns_.quantile_ns(0.5) / 1000.0,
               warm_pricing_ns_.count());
    set_metric(out, "exec.pricing_cold_us",
               cold_pricing_ns_.quantile_ns(0.5) / 1000.0,
               cold_pricing_ns_.count());
  }

  std::vector<std::string> dump_inputs(const std::string& dir) override {
    std::vector<std::string> files;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const std::string path = dir + "/script_session-seed" +
                               std::to_string(seed_) + "-" +
                               std::to_string(i) + ".hpf";
      std::ofstream out(path);
      out << pool_[i].text;
      if (out) files.push_back(path);
    }
    return files;
  }

 private:
  const Script& script_of(std::int64_t i) const {
    return pool_[static_cast<std::size_t>(i % kPoolSize)];
  }

  /// One hpflint --cost --exec session: parse, lint, cost-predict, then run
  /// on a fresh state attached to the shared service.
  Session run_session(const Script& script) {
    Session s;
    const Extent procs = script.procs;
    s.machine = std::make_unique<Machine>(procs);
    dir::AstProgram program;
    {
      Span span("directives.parse");
      program = dir::parse_program(script.text);
    }
    {
      Span span("analysis.lint");
      ProcessorSpace lint_space(procs);
      s.lint_errors = analysis::analyze_program(lint_space, program).errors();
    }
    {
      Span span("analysis.cost");
      ProcessorSpace cost_space(procs);
      s.cost = analysis::cost_program(*s.machine, cost_space, program);
    }
    s.space = std::make_unique<ProcessorSpace>(procs);
    s.state = std::make_unique<ProgramState>(*s.machine);
    s.state->set_plan_service(&service_);
    s.interp = std::make_unique<dir::Interpreter>(*s.space);
    s.interp->set_state(s.state.get());
    {
      Span span("directives.run");
      s.interp->run(script.text);
    }
    s.ran = true;
    if (g_tracer) {
      for (const dir::AssignExec& a : s.interp->assigns()) {
        (a.result.ownership_queries > 0 ? cold_pricing_ns_ : warm_pricing_ns_)
            .add(a.result.pricing_ns);
      }
    }
    return s;
  }

  /// Values equal the serial reference; nothing was lost in recovery; and
  /// on a script the cost model prices completely (no CALL, fault or
  /// checkpoint statement), the prediction equals the execution field by
  /// field and predicted plan reuse equals the L1 misses and hits.
  bool check(int index, const Session& s) const {
    const Script& script = pool_[static_cast<std::size_t>(index)];
    const Values& ref = refs_[static_cast<std::size_t>(index)];
    for (std::size_t a = 0; a < script.arrays.size(); ++a) {
      const ArrayId id = s.interp->env().find(script.arrays[a].name).id();
      if (s.state->values_count(id) != static_cast<Extent>(ref[a].size()) ||
          std::memcmp(s.state->values_span(id), ref[a].data(),
                      sizeof(double) * ref[a].size()) != 0) {
        return false;
      }
    }
    for (const RecoveryReport& r : s.interp->recoveries()) {
      if (r.lost_elements != 0) return false;
    }
    if (s.lint_errors != 0 || s.cost.errors() != 0) return false;
    if (s.cost.unmodeled == 0) {
      const CommEngine& c = s.state->comm();
      const analysis::CostTotals& t = s.cost.totals;
      const bool same =
          t.messages == c.total_messages() && t.bytes == c.total_bytes() &&
          t.element_transfers == c.total_transfers() &&
          t.local_reads == c.local_reads() &&
          t.time_us == c.total_time_us() &&
          t.exposed_comm_us == c.total_exposed_comm_us() &&
          t.hidden_comm_us == c.total_hidden_comm_us() &&
          s.cost.plans_priced == s.state->plans().misses() &&
          s.cost.plan_replays == s.state->plans().hits();
      if (!same) return false;
    }
    return true;
  }

  /// Folds one session's counters into the running totals the count
  /// window snapshots.
  void tally(Session& s) {
    if (!s.ran) return;
    Extent queries = 0;
    for (const dir::AssignExec& a : s.interp->assigns()) {
      queries += a.result.ownership_queries;
    }
    Extent lost = 0;
    for (const RecoveryReport& r : s.interp->recoveries()) {
      lost += r.lost_elements;
    }
    Counts add = state_counts(*s.state);
    add.push_back(
        {"analysis.plans_priced", static_cast<double>(s.cost.plans_priced)});
    add.push_back(
        {"analysis.plan_replays", static_cast<double>(s.cost.plan_replays)});
    add.push_back({"core.ownership_queries", static_cast<double>(queries)});
    add.push_back({"fault.recoveries",
                   static_cast<double>(s.interp->recoveries().size())});
    add.push_back({"fault.lost_elements", static_cast<double>(lost)});
    if (totals_.empty()) {
      for (const auto& [name, value] : add) totals_.push_back({name, 0.0});
    }
    for (std::size_t k = 0; k < add.size(); ++k) {
      totals_[k].second += add[k].second;
    }
  }

  std::uint64_t seed_;
  PlanService service_;
  std::vector<Script> pool_;
  std::vector<Values> refs_;
  Session last_;
  std::int64_t setup_failures_ = 0;
  Histogram warm_pricing_ns_, cold_pricing_ns_;
  Counts totals_, counts_;
};

}  // namespace

std::unique_ptr<Workload> make_script_session(std::uint64_t seed) {
  return std::make_unique<ScriptSession>(seed);
}

}  // namespace hpfbench
