// jacobi_large — a warm 2-D 5-point Jacobi, n = 256, BLOCK x BLOCK on a
// 4 x 4 grid of 16 processors, ping-ponging jacobi_step with its plans hot.
// Nearly all time is exec numerics and writeback (pricing is a few us of a
// ~250 us step), so plan-layer changes should not move this workload; it is
// the one numerics work shows on, against the handwritten loop below.
#include <cstring>

#include "core/data_env.hpp"
#include "counts.hpp"
#include "exec/stencil.hpp"
#include "exec/storage.hpp"
#include "harness.hpp"
#include "model.hpp"

namespace hpfbench {
namespace {

using namespace hpfnt;

constexpr Extent kN = 256;
constexpr Extent kProcs = 16;

/// The modeled outputs of one step, which every replay of a direction must
/// repeat byte for byte (pricing_ns and ownership_queries differ between
/// the cold first step and its replays by design, so they are left out).
bool same_model(const SweepStats& a, const SweepStats& b) {
  return a.elements == b.elements && a.messages == b.messages &&
         a.bytes == b.bytes &&
         a.remote_element_reads == b.remote_element_reads &&
         a.local_element_reads == b.local_element_reads &&
         std::memcmp(&a.time_us, &b.time_us, sizeof(double)) == 0 &&
         std::memcmp(&a.exposed_comm_us, &b.exposed_comm_us,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.hidden_comm_us, &b.hidden_comm_us, sizeof(double)) ==
             0 &&
         std::memcmp(&a.remote_read_fraction, &b.remote_read_fraction,
                     sizeof(double)) == 0;
}

/// The yardstick: the same (((N+S)+W)+E)*0.25 update on plain column-major
/// arrays, in the same binary with the same flags.
void handloop_step(const double* a, double* b, Extent n) {
  for (Extent j = 1; j < n - 1; ++j) {
    for (Extent i = 1; i < n - 1; ++i) {
      b[i + n * j] = (((a[(i - 1) + n * j] + a[(i + 1) + n * j]) +
                       a[i + n * (j - 1)]) +
                      a[i + n * (j + 1)]) *
                     0.25;
    }
  }
}

class JacobiLarge final : public Workload {
 public:
  explicit JacobiLarge(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    {
      Span span("bench.generate");
      // Seeded values, boundary included, all in [1, 2): the sweep never
      // produces zeros or denormals, whose arithmetic would skew timing.
      Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 3);
      initial_.resize(static_cast<std::size_t>(kN * kN));
      for (double& v : initial_) {
        v = 1.0 + static_cast<double>(rng.next() % 4096) / 4096.0;
      }
    }
    space_.declare("G", IndexDomain::of_extents({4, 4}));
    env_ = std::make_unique<DataEnv>(space_);
    a_ = &env_->real("A", IndexDomain{Dim(1, kN), Dim(1, kN)});
    b_ = &env_->real("B", IndexDomain{Dim(1, kN), Dim(1, kN)});
    const ProcessorRef grid(space_.find("G"));
    env_->distribute(*a_, {DistFormat::block(), DistFormat::block()}, grid);
    env_->distribute(*b_, {DistFormat::block(), DistFormat::block()}, grid);
    state_.create(*env_, *a_);
    state_.create(*env_, *b_);
    auto init = [this](const IndexTuple& i) {
      return initial_[static_cast<std::size_t>((i[0] - 1) + kN * (i[1] - 1))];
    };
    state_.fill(a_->id(), init);
    state_.fill(b_->id(), init);
    // Priming: one cold step per direction; their stats are what every
    // later step in that direction must replay.
    Span span("exec.prime");
    for (int d = 0; d < 2; ++d) {
      first_[d] = step(d);
      cold_pricing_ns_[d] = first_[d].pricing_ns;
    }
  }

  std::int64_t run_op(std::int64_t /*i*/) override {
    Span span("exec.jacobi_step");
    last_ = step(static_cast<int>(steps_ % 2));
    const std::int64_t dt = span.stop();
    if (dt > 0) {
      step_ns_.add(dt);
      pricing_ns_.add(last_.pricing_ns);
      eval_writeback_ns_.add(dt - last_.pricing_ns);
    }
    return last_.elements;
  }

  bool check_op(std::int64_t /*i*/) override {
    return same_model(last_, first_[(steps_ - 1) % 2]);
  }

  void traced_side(std::int64_t i) override {
    // The yardstick, timed in the same traced blocks as the library steps
    // (one block of handloop steps per block of ops), so the ratio pairs
    // measurements taken under the same machine conditions. It runs on
    // private arrays; the library's state is untouched.
    if (i % count_window() != 0) return;
    if (hand_src_.empty()) {
      hand_src_ = initial_;
      hand_dst_ = initial_;
    }
    for (std::int64_t k = 0; k < count_window(); ++k) {
      Span span("baseline.handloop");
      handloop_step(hand_src_.data(), hand_dst_.data(), kN);
      handloop_ns_.add(span.stop());
      std::swap(hand_src_, hand_dst_);
    }
  }

  std::int64_t count_window() const override { return 64; }

  void snapshot_counts() override {
    counts_ = state_counts(state_);
    add_l1_hit_rate(counts_);
    counts_.push_back({"core.ownership_queries", static_cast<double>(queries_)});
  }

  std::int64_t verify(std::int64_t ops) override {
    // Replay every step (priming included) with the handwritten loop and
    // require byte-equal arrays.
    std::vector<double> a = initial_, b = initial_;
    double* src = a.data();
    double* dst = b.data();
    for (std::int64_t s = 0; s < ops + 2; ++s) {
      handloop_step(src, dst, kN);
      std::swap(src, dst);
    }
    const std::size_t bytes = sizeof(double) * a.size();
    const bool ok =
        std::memcmp(state_.values_span(a_->id()), a.data(), bytes) == 0 &&
        std::memcmp(state_.values_span(b_->id()), b.data(), bytes) == 0;
    return ok ? 0 : ops;
  }

  void layer_metrics(const Tracer& /*tracer*/,
                     std::vector<Metric>& out) override {
    for (const auto& [name, value] : counts_) {
      set_metric(out, name, value, count_window());
    }
    const std::int64_t n = step_ns_.count();
    const double step_us = step_ns_.quantile_ns(0.5) / 1000.0;
    const double hand_us = handloop_ns_.quantile_ns(0.5) / 1000.0;
    set_metric(out, "exec.assign_us", step_us, n);
    set_metric(out, "exec.eval_writeback_us",
               eval_writeback_ns_.quantile_ns(0.5) / 1000.0, n);
    set_metric(out, "exec.pricing_warm_us", pricing_ns_.quantile_ns(0.5) / 1000.0,
               n);
    set_metric(out, "exec.pricing_cold_us",
               0.5e-3 * static_cast<double>(cold_pricing_ns_[0] +
                                            cold_pricing_ns_[1]),
               2);
    set_metric(out, "baseline.handloop_us", hand_us, handloop_ns_.count());
    set_metric(out, "exec.vs_handloop", step_us / hand_us, n);
  }

  std::vector<std::string> dump_inputs(const std::string& /*dir*/) override {
    return {};  // the inputs are the seeded arrays, not a script
  }

 private:
  SweepStats step(int direction) {
    const DistArray& src = direction == 0 ? *a_ : *b_;
    const DistArray& dst = direction == 0 ? *b_ : *a_;
    SweepStats s = jacobi_step(state_, *env_, src, dst, kN);
    ++steps_;
    queries_ += s.ownership_queries;
    return s;
  }

  std::uint64_t seed_;
  Machine machine_{kProcs};
  ProcessorSpace space_{kProcs};
  std::unique_ptr<DataEnv> env_;
  DistArray* a_ = nullptr;
  DistArray* b_ = nullptr;
  ProgramState state_{machine_};
  std::vector<double> initial_;
  std::vector<double> hand_src_, hand_dst_;  // the traced yardstick's arrays
  SweepStats first_[2];
  SweepStats last_;
  Extent cold_pricing_ns_[2] = {0, 0};
  std::int64_t steps_ = 0;
  Extent queries_ = 0;
  Histogram step_ns_, pricing_ns_, eval_writeback_ns_, handloop_ns_;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_jacobi_large(std::uint64_t seed) {
  return std::make_unique<JacobiLarge>(seed);
}

}  // namespace hpfbench
