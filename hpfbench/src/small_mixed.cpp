// small_mixed — many small warm statements, one assign call per op.
//
// Arrays of 16-64 elements per dimension, 1-D and 2-D, laid out BLOCK,
// CYCLIC(k), GENERAL_BLOCK, ALIGN-derived (offset, stride, transpose) and
// SHADOWed. The statements run in 8 loop-body phases of 12; their ~96
// distinct plans exceed the session's L1 PlanCache (64) but fit the shared
// PlanService attached behind it, so both L1 hits and L1 -> L2 fallbacks
// occur on every round. Time here is plan-key construction, lookup and
// replay; numerics are tiny. A numerics or threading change should barely
// move this workload and must not slow it.
#include <cstring>
#include <fstream>

#include "core/data_env.hpp"
#include "counts.hpp"
#include "directives/interp.hpp"
#include "directives/parser.hpp"
#include "exec/comm_plan.hpp"
#include "exec/overlap.hpp"
#include "exec/storage.hpp"
#include "harness.hpp"
#include "model.hpp"
#include "service/plan_service.hpp"

namespace hpfbench {
namespace {

using namespace hpfnt;

bool same_step(const AssignResult& a, const AssignResult& b) {
  const StepStats& x = a.step;
  const StepStats& y = b.step;
  return a.elements == b.elements && a.local_reads == b.local_reads &&
         x.label == y.label && x.messages == y.messages &&
         x.bytes == y.bytes && x.element_transfers == y.element_transfers &&
         x.flops == y.flops && x.retries == y.retries &&
         std::memcmp(&x.time_us, &y.time_us, sizeof(double)) == 0 &&
         std::memcmp(&x.exposed_comm_us, &y.exposed_comm_us,
                     sizeof(double)) == 0 &&
         std::memcmp(&x.hidden_comm_us, &y.hidden_comm_us, sizeof(double)) ==
             0 &&
         std::memcmp(&x.retry_us, &y.retry_us, sizeof(double)) == 0 &&
         a.posted_leaves == b.posted_leaves;
}

class SmallMixed final : public Workload {
 public:
  explicit SmallMixed(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    {
      Span span("bench.generate");
      prog_ = generate_mixed(seed_);
    }
    space_ = std::make_unique<ProcessorSpace>(prog_.procs);
    machine_ = std::make_unique<Machine>(prog_.procs);
    state_ = std::make_unique<ProgramState>(*machine_);
    state_->set_plan_service(&service_);
    interp_ = std::make_unique<dir::Interpreter>(*space_);
    interp_->set_state(state_.get());
    {
      Span span("directives.run");
      interp_->run(prog_.decl_text);
    }
    // Bind every statement once; an op is then exactly one assign call.
    {
      Span span("directives.bind");
      for (const Assign& s : prog_.stmts) {
        const std::string text = render(s, prog_.arrays) + "\n";
        const dir::AstProgram ast = dir::parse_program(text);
        bound_.push_back(
            interp_->binder().bind_array_assign(*ast.main.at(0).array_assign));
      }
    }
    for (std::size_t a = 0; a < prog_.arrays.size(); ++a) {
      const std::vector<double>& init = prog_.initial[a];
      const Extent n0 = prog_.arrays[a].ext[0];
      state_->fill(interp_->env().find(prog_.arrays[a].name).id(),
                   [&](const IndexTuple& i) {
                     const Extent j = i.size() > 1 ? i[1] - 1 : 0;
                     return init[static_cast<std::size_t>((i[0] - 1) +
                                                          n0 * j)];
                   });
    }
    // Priming: one round, which prices every plan cold; each statement's
    // first pricing is what its replays must repeat.
    first_.resize(bound_.size());
    std::vector<bool> seen(bound_.size(), false);
    {
      Span span("exec.prime");
      for (int s : prog_.round) {
        AssignResult r = exec(s);
        if (r.ownership_queries > 0) cold_pricing_ns_.add(r.pricing_ns);
        if (!seen[static_cast<std::size_t>(s)]) {
          seen[static_cast<std::size_t>(s)] = true;
          first_[static_cast<std::size_t>(s)] = r;
        } else if (!same_step(r, first_[static_cast<std::size_t>(s)])) {
          ++setup_failures_;
        }
      }
    }
    // Reference: the model evaluates the priming round serially; the state
    // must match it before the timed ops start.
    Span span("bench.reference");
    ref_ = prog_.initial;
    for (int s : prog_.round) {
      eval_assign(prog_.stmts[static_cast<std::size_t>(s)], prog_.arrays, ref_);
    }
    if (!matches_reference()) ++setup_failures_;
  }

  std::int64_t run_op(std::int64_t i) override {
    const int s = stmt_of(i);
    Span span("exec.assign");
    last_ = exec(s);
    const std::int64_t dt = span.stop();
    if (dt > 0) {
      assign_ns_.add(dt);
      eval_writeback_ns_.add(dt - last_.pricing_ns);
      if (last_.ownership_queries == 0) {
        warm_pricing_ns_.add(last_.pricing_ns);
      } else {
        cold_pricing_ns_.add(last_.pricing_ns);
      }
    }
    return last_.elements;
  }

  bool check_op(std::int64_t i) override {
    return same_step(last_, first_[static_cast<std::size_t>(stmt_of(i))]);
  }

  void traced_side(std::int64_t i) override {
    Span span("exec.plan_key");
    const std::string key = plan_key(stmt_of(i));
    plan_key_ns_.add(span.stop());
  }

  std::int64_t count_window() const override {
    return 2 * static_cast<std::int64_t>(prog_.round.size());
  }

  void snapshot_counts() override {
    counts_ = state_counts(*state_);
    add_l1_hit_rate(counts_);
    add_service_counts(service_, counts_);
    counts_.push_back({"core.ownership_queries", static_cast<double>(queries_)});
  }

  std::int64_t verify(std::int64_t ops) override {
    for (std::int64_t i = 0; i < ops; ++i) {
      eval_assign(prog_.stmts[static_cast<std::size_t>(stmt_of(i))],
                  prog_.arrays, ref_);
    }
    return setup_failures_ + (matches_reference() ? 0 : ops);
  }

  void layer_metrics(const Tracer& /*tracer*/,
                     std::vector<Metric>& out) override {
    for (const auto& [name, value] : counts_) {
      set_metric(out, name, value, count_window());
    }
    const std::int64_t n = assign_ns_.count();
    set_metric(out, "exec.assign_us", assign_ns_.quantile_ns(0.5) / 1000.0, n);
    set_metric(out, "exec.eval_writeback_us",
               eval_writeback_ns_.quantile_ns(0.5) / 1000.0, n);
    set_metric(out, "exec.pricing_warm_us",
               warm_pricing_ns_.quantile_ns(0.5) / 1000.0,
               warm_pricing_ns_.count());
    set_metric(out, "exec.pricing_cold_us",
               cold_pricing_ns_.quantile_ns(0.5) / 1000.0,
               cold_pricing_ns_.count());
    set_metric(out, "exec.plan_key_us", plan_key_ns_.quantile_ns(0.5) / 1000.0,
               plan_key_ns_.count());
    // Mean key size over one round (the statement cycle), so it is a
    // deterministic count whatever the traced op count.
    double bytes = 0.0;
    for (int s : prog_.round) {
      bytes += static_cast<double>(plan_key(s).size());
    }
    set_metric(out, "exec.key_bytes",
               bytes / static_cast<double>(prog_.round.size()),
               static_cast<std::int64_t>(prog_.round.size()));
  }

  std::vector<std::string> dump_inputs(const std::string& dir) override {
    // Declarations plus one round of statements, as one replayable script.
    const std::string path =
        dir + "/small_mixed-seed" + std::to_string(seed_) + ".hpf";
    std::ofstream out(path);
    out << "! hpfbench small_mixed seed=" << seed_ << ": one round\n"
        << "! replay: hpflint --procs " << prog_.procs
        << " --cost --exec <this file>\n"
        << prog_.decl_text;
    for (int s : prog_.round) {
      out << render(prog_.stmts[static_cast<std::size_t>(s)], prog_.arrays)
          << "\n";
    }
    return out ? std::vector<std::string>{path} : std::vector<std::string>{};
  }

 private:
  int stmt_of(std::int64_t i) const {
    return prog_.round[static_cast<std::size_t>(
        i % static_cast<std::int64_t>(prog_.round.size()))];
  }

  AssignResult exec(int s) {
    const dir::BoundArrayAssign& b = bound_[static_cast<std::size_t>(s)];
    AssignResult r = hpfnt::assign(*state_, interp_->env(), *b.lhs, b.section,
                                   b.rhs, b.lhs->name());
    queries_ += r.ownership_queries;
    return r;
  }

  /// The executor's content key for statement s: the public key builder
  /// over the statement's operands, mirroring the key construction in
  /// exec/assign.cpp. A pure function of the layouts, sections and shadows,
  /// so calling it leaves every cache untouched.
  std::string plan_key(int s) const {
    const dir::BoundArrayAssign& b = bound_[static_cast<std::size_t>(s)];
    const Distribution& lhs_dist = interp_->env().distribution_of(*b.lhs);
    const std::vector<SecLeaf> leaves = b.rhs.program().leaves();
    std::vector<AssignKeyLeaf> key_leaves;
    key_leaves.reserve(leaves.size());
    for (const SecLeaf& leaf : leaves) {
      const bool posted =
          state_->comm().overlap_enabled() &&
          classify_operand_comm(lhs_dist, b.section, state_->layout(leaf.array),
                                *leaf.section, state_->shadow_of(leaf.array)) ==
              CommClass::kPosted;
      key_leaves.push_back({&state_->layout(leaf.array), leaf.section,
                            leaf.bytes, posted,
                            &state_->shadow_of(leaf.array)});
    }
    return assign_plan_key(lhs_dist, b.section, elem_bytes(b.lhs->type()),
                           b.rhs.flops_per_element(), key_leaves);
  }

  bool matches_reference() const {
    for (std::size_t a = 0; a < prog_.arrays.size(); ++a) {
      const ArrayId id = interp_->env().find(prog_.arrays[a].name).id();
      if (std::memcmp(state_->values_span(id), ref_[a].data(),
                      sizeof(double) * ref_[a].size()) != 0) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  MixedProgram prog_;
  PlanService service_;
  std::unique_ptr<ProcessorSpace> space_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<ProgramState> state_;
  std::unique_ptr<dir::Interpreter> interp_;
  std::vector<dir::BoundArrayAssign> bound_;
  std::vector<AssignResult> first_;
  AssignResult last_;
  Values ref_;
  std::int64_t setup_failures_ = 0;
  Extent queries_ = 0;
  Histogram assign_ns_, eval_writeback_ns_, warm_pricing_ns_,
      cold_pricing_ns_, plan_key_ns_;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_small_mixed(std::uint64_t seed) {
  return std::make_unique<SmallMixed>(seed);
}

}  // namespace hpfbench
