// hpfbench — one closed-loop caller, one process, one thread.
//
//   hpfbench --workload <jacobi_large|small_mixed|script_session>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out DIR] [--dump-inputs]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// it alternates untraced blocks (counts and the overhead baseline) with
// blocks timed by spans, then prints the per-layer metrics. Every metric is printed by name with its unit and sample count;
// the last stdout line is the JSON result. See README.md for what each
// workload and metric is for.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace hpfbench {

Tracer* g_tracer = nullptr;

// --- Histogram ---------------------------------------------------------------

namespace {

constexpr int kMaxExp = 62;

}  // namespace

Histogram::Histogram(int sub_bits)
    : sub_bits_(sub_bits),
      buckets_(static_cast<std::size_t>((kMaxExp - sub_bits + 2)
                                        << sub_bits),
               0) {}

std::size_t Histogram::bucket_of(std::int64_t v) const {
  const std::int64_t sub = std::int64_t{1} << sub_bits_;
  if (v < sub) return static_cast<std::size_t>(std::max<std::int64_t>(v, 0));
  const int e = 63 - __builtin_clzll(static_cast<unsigned long long>(v));
  const int shift = e - sub_bits_;
  return static_cast<std::size_t>(sub + shift * sub + ((v >> shift) - sub));
}

void Histogram::bucket_range(std::size_t b, double* lo, double* width) const {
  const std::int64_t sub = std::int64_t{1} << sub_bits_;
  const auto i = static_cast<std::int64_t>(b);
  if (i < sub) {
    *lo = static_cast<double>(i);
    *width = 1.0;
    return;
  }
  const std::int64_t shift = (i - sub) / sub;
  const std::int64_t rest = (i - sub) % sub;
  *lo = std::ldexp(static_cast<double>(sub + rest), static_cast<int>(shift));
  *width = std::ldexp(1.0, static_cast<int>(shift));
}

void Histogram::add(std::int64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::int64_t c = buckets_[b];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      double lo = 0.0, width = 0.0;
      bucket_range(b, &lo, &width);
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(c);
      return lo + std::clamp(frac, 0.0, 1.0) * width;
    }
    cum += c;
  }
  return 0.0;
}

// --- Tracer ------------------------------------------------------------------

std::size_t Tracer::layer_index(const char* name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->name == name || std::strcmp(layers_[i]->name, name) == 0) {
      return i;
    }
  }
  layers_.push_back(std::make_unique<Layer>());
  layers_.back()->name = name;
  return layers_.size() - 1;
}

void Tracer::begin(const char* name) {
  Open open;
  open.layer = layer_index(name);
  open.parent_record = stack_.empty() ? -1 : stack_.back().record;
  if (records_.size() < kMaxRecords) {
    open.record = static_cast<std::int32_t>(records_.size());
    SpanRecord rec;
    rec.name = name;
    rec.parent = open.parent_record;
    rec.op = op_;
    records_.push_back(rec);
  }
  open.start_ns = now_ns();
  stack_.push_back(open);
}

std::int64_t Tracer::end() {
  const std::int64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - open.start_ns;
  Layer& layer = *layers_[open.layer];
  layer.duration.add(duration);
  layer.total_ns += duration;
  layer.self_ns += duration - open.child_ns;
  ++layer.count;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    SpanRecord& rec = records_[static_cast<std::size_t>(open.record)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end_ns;
  }
  return duration;
}

const Tracer::Layer* Tracer::layer(const char* name) const {
  for (const auto& l : layers_) {
    if (std::strcmp(l->name, name) == 0) return l.get();
  }
  return nullptr;
}

double Tracer::median_us(const char* name) const {
  const Layer* l = layer(name);
  return l ? l->duration.quantile_ns(0.5) / 1000.0 : 0.0;
}

bool Tracer::write(std::ostream& out) const {
  for (const SpanRecord& r : records_) {
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent
        << ",\"op\":" << r.op << "}\n";
  }
  for (const auto& l : layers_) {
    out << "{\"summary\":\"" << l->name << "\",\"count\":" << l->count
        << ",\"total_ns\":" << l->total_ns << ",\"self_ns\":" << l->self_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

void set_metric(std::vector<Metric>& out, const std::string& name,
                double value, std::int64_t samples) {
  for (Metric& m : out) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  }
  std::cerr << "hpfbench: internal error: unknown metric " << name << "\n";
  std::abort();
}

// --- the run -----------------------------------------------------------------

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in BENCHMARK.json order. Units: "us" is measured
// wall time, "model_us" the simulator's modeled machine time (an output, not
// a speed), "count"/"bytes"/"frac" are deterministic counts and ratios of
// counts, "x"/"ratio" are ratios of wall times.
constexpr MetricDef kLayerMetrics[] = {
    {"directives.parse_us", "us"},
    {"directives.run_us", "us"},
    {"directives.lines", "count"},
    {"analysis.lint_us", "us"},
    {"analysis.cost_us", "us"},
    {"analysis.plans_priced", "count"},
    {"analysis.plan_replays", "count"},
    {"exec.assign_us", "us"},
    {"exec.eval_writeback_us", "us"},
    {"exec.vs_handloop", "x"},
    {"baseline.handloop_us", "us"},
    {"exec.pricing_warm_us", "us"},
    {"exec.pricing_cold_us", "us"},
    {"exec.plan_key_us", "us"},
    {"exec.key_bytes", "bytes"},
    {"exec.l1_hits", "count"},
    {"exec.l1_misses", "count"},
    {"exec.l1_evictions", "count"},
    {"exec.l1_invalidations", "count"},
    {"exec.l1_hit_rate", "frac"},
    {"service.hits", "count"},
    {"service.misses", "count"},
    {"service.inserts", "count"},
    {"service.evictions", "count"},
    {"service.invalidations", "count"},
    {"service.hit_rate", "frac"},
    {"core.ownership_queries", "count"},
    {"machine.messages", "count"},
    {"machine.bytes", "bytes"},
    {"machine.modeled_us", "model_us"},
    {"machine.exposed_comm_us", "model_us"},
    {"machine.hidden_comm_us", "model_us"},
    {"fault.retries", "count"},
    {"fault.retry_us", "model_us"},
    {"fault.recoveries", "count"},
    {"fault.lost_elements", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_bench_us", "us"},
    {"trace.self_directives_us", "us"},
    {"trace.self_analysis_us", "us"},
    {"trace.self_exec_us", "us"},
};

// Set-up runs kSetupRepeats times before the ops (the last instance is
// measured) and, in untraced runs, once more every kSetupEveryNs between
// ops on a throwaway instance; setup_s is the median of all of them.
constexpr int kSetupRepeats = 3;
constexpr std::int64_t kSetupEveryNs = 1'000'000'000;
// How often, between ops, the loop moves to the quietest CPU.
constexpr std::int64_t kRepinEveryNs = 100'000'000;
// Every run has at least this many ops, and the timed windows hold at least
// this many, so p99 has ten samples beyond it.
constexpr std::int64_t kMinOps = 1100;
// Untraced ops are grouped into windows of a whole number of count windows
// and at least this much op time; the end-to-end times come from the
// fastest kQuietShare of the windows.
constexpr std::int64_t kWindowNs = 100'000'000;
constexpr double kQuietShare = 0.05;
// A window's histogram resolution: 32 sub-buckets per power of two.
constexpr int kWindowSubBits = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  bool dump_inputs = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hpfbench: " << why
            << "\nusage: hpfbench --workload "
               "<jacobi_large|small_mixed|script_session> --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--dump-inputs]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--out") {
        args.out_dir = value();
      } else if (a == "--dump-inputs") {
        args.dump_inputs = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 3600.0)) {
    usage("--seconds must be in (0, 3600]");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "jacobi_large") return make_jacobi_large(args.seed);
  if (args.workload == "small_mixed") return make_small_mixed(args.seed);
  if (args.workload == "script_session") {
    return make_script_session(args.seed);
  }
  usage("unknown workload " + args.workload);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Keeps the loop on the quietest allowed CPU. On a shared host, a CPU's
/// speed for this code depends on what runs beside it on the same physical
/// core, and that changes over seconds: at one moment the same Jacobi step
/// takes ~165 us on one CPU and ~270 us on another. To measure the library
/// rather than its neighbours, the loop re-pins itself, between ops and
/// ten times a second, to the allowed CPU that runs a short fixed stencil
/// probe fastest. The original affinity is restored on destruction.
class QuietCpu {
 public:
  QuietCpu() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~QuietCpu() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  QuietCpu(const QuietCpu&) = delete;
  QuietCpu& operator=(const QuietCpu&) = delete;

  void repin() {
    if (cpus_.size() < 2) return;
    int best = cpus_.front();
    std::int64_t best_ns = INT64_MAX;
    for (int c : cpus_) {
      if (!pin(c)) continue;
      const std::int64_t ns = probe();
      if (ns < best_ns) {
        best_ns = ns;
        best = c;
      }
    }
    pin(best);
  }

 private:
  static bool pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

  /// Fastest of a few sweeps of a 5-point stencil over 128 x 128 doubles.
  std::int64_t probe() {
    constexpr int kN = 128;
    if (grid_.empty()) grid_.assign(2 * kN * kN, 1.0);
    double* a = grid_.data();
    double* b = a + kN * kN;
    std::int64_t best = INT64_MAX;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      for (int j = 1; j < kN - 1; ++j) {
        for (int i = 1; i < kN - 1; ++i) {
          b[i + kN * j] = (a[i - 1 + kN * j] + a[i + 1 + kN * j] +
                           a[i + kN * (j - 1)] + a[i + kN * (j + 1)]) *
                          0.25;
        }
      }
      best = std::min(best, now_ns() - t0);
      std::swap(a, b);
    }
    return best;
  }

  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::vector<double> grid_;
};

/// A stretch of consecutive untraced ops.
struct Window {
  Histogram latency{kWindowSubBits};
  std::int64_t ops = 0;
  std::int64_t op_ns = 0;
  std::int64_t elements = 0;

  void merge(const Window& other) {
    latency.merge(other.latency);
    ops += other.ops;
    op_ns += other.op_ns;
    elements += other.elements;
  }
};

/// What the metrics need from one pass's ops. Only the untraced pass of an
/// untraced run keeps windows.
struct Pass {
  std::int64_t ops = 0;
  std::int64_t op_ns = 0;
  std::int64_t elements = 0;
  std::int64_t failed = 0;
  std::vector<Window> windows;
};

/// The quietest part of an untraced run, from which its times are taken.
///
/// The host gives this process a few CPUs of a shared machine, and other
/// tenants slow a CPU by up to 2x for a second or more at a time: a plain
/// 256 x 256 stencil sweep reads ~49 us in one half second and ~80 us in
/// the next, and the share of slow seconds differs from run to run. A median over the whole
/// run follows that share, not the library. So the run is cut into windows
/// with the same op mix (whole count windows, at least kWindowNs each), the
/// windows are ranked by mean op time, and the fastest kQuietShare of them,
/// plus more while they hold fewer than min_ops ops, are merged. A change
/// that makes every op slower makes every window slower and shows in full.
Window quietest(const std::vector<Window>& windows, std::int64_t min_ops) {
  std::vector<const Window*> ranked;
  for (const Window& w : windows) ranked.push_back(&w);
  std::sort(ranked.begin(), ranked.end(),
            [](const Window* a, const Window* b) {
              return static_cast<double>(a->op_ns) *
                         static_cast<double>(b->ops) <
                     static_cast<double>(b->op_ns) *
                         static_cast<double>(a->ops);
            });
  const auto share = static_cast<std::size_t>(
      std::ceil(kQuietShare * static_cast<double>(ranked.size())));
  Window quiet;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    if (k >= share && quiet.ops >= min_ops) break;
    quiet.merge(*ranked[k]);
  }
  return quiet;
}

class Runner {
 public:
  Runner(Workload& wl, const Args& args, QuietCpu& cpu)
      : wl_(wl), args_(args), cpu_(cpu) {}

  /// Runs ops until `seconds` have passed and at least `min_ops` ran,
  /// timing each run_op call. Without a tracer, the ops are grouped into
  /// windows (see quietest()) and the loop stops only at the end of a count
  /// window. With a tracer, the count window runs
  /// untraced and then blocks of count_window() ops alternate untraced and
  /// traced, so both passes see the same op mix and drift over the run
  /// cancels; the loop then stops only after a traced block. Between ops,
  /// the loop re-pins to the quietest CPU ten times a second and, when
  /// untraced, runs `extra_setup` once a second, so set-up time is sampled
  /// across the whole run as the ops are.
  void run(Pass& untraced, Pass& traced, double seconds, std::int64_t min_ops,
           Tracer* tracer, const std::function<void()>& extra_setup) {
    const std::int64_t w = wl_.count_window();
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t next_setup = now_ns() + kSetupEveryNs;
    std::int64_t next_repin = now_ns() + kRepinEveryNs;
    auto is_traced = [&](std::int64_t i) {
      return tracer != nullptr && i >= w && ((i - w) / w) % 2 == 1;
    };
    if (tracer == nullptr) untraced.windows.emplace_back();
    while (next_ < min_ops || now_ns() < deadline ||
           (tracer == nullptr
                ? next_ % w != 0
                : (next_ < 3 * w || (next_ - w) % (2 * w) != 0))) {
      if (now_ns() >= next_repin) {
        cpu_.repin();
        next_repin = now_ns() + kRepinEveryNs;
      }
      if (tracer == nullptr && now_ns() >= next_setup) {
        extra_setup();
        next_setup = now_ns() + kSetupEveryNs;
      }
      const std::int64_t i = next_++;
      const bool traced_op = is_traced(i);
      g_tracer = traced_op ? tracer : nullptr;
      Window* window = tracer == nullptr ? &untraced.windows.back() : nullptr;
      run_one(i, traced_op ? traced : untraced, window);
      g_tracer = nullptr;
      if (next_ == w) wl_.snapshot_counts();
      if (window != nullptr && next_ % w == 0 && window->op_ns >= kWindowNs) {
        untraced.windows.emplace_back();
      }
    }
    if (tracer == nullptr && untraced.windows.back().ops == 0) {
      untraced.windows.pop_back();
    }
  }

  std::int64_t total_ops() const noexcept { return next_; }

  /// One op: traced-side work, the timed run_op call, then its check.
  /// Throws and failed checks count as failed ops; nothing aborts the run.
  /// The op's time goes into `pass` and, when given, `window`.
  void run_one(std::int64_t i, Pass& pass, Window* window) {
    std::int64_t elements = 0;
    bool ok = true;
    if (g_tracer) {
      g_tracer->set_op(i);
      wl_.traced_side(i);
    }
    const std::int64_t t0 = now_ns();
    if (g_tracer) g_tracer->begin("bench.op");
    try {
      elements = wl_.run_op(i);
    } catch (const std::exception& e) {
      note_failure(i, std::string("op threw: ") + e.what());
      ok = false;
    }
    if (g_tracer) g_tracer->end();
    const std::int64_t dt = now_ns() - t0;
    {
      Span check("bench.check");
      try {
        ok = wl_.check_op(i) && ok;
      } catch (const std::exception& e) {
        note_failure(i, std::string("check threw: ") + e.what());
        ok = false;
      }
    }
    if (!ok) {
      ++pass.failed;
      note_failure(i, "output check failed");
    }
    pass.op_ns += dt;
    pass.elements += elements;
    ++pass.ops;
    if (window != nullptr) {
      window->latency.add(dt);
      window->op_ns += dt;
      window->elements += elements;
      ++window->ops;
    }
  }

  void note_failure(std::int64_t i, const std::string& what) {
    if (failures_noted_++ < 5) {
      std::cerr << "hpfbench: " << args_.workload << " op " << i << ": "
                << what << "\n";
    }
    if (!dumped_ && !args_.out_dir.empty()) {
      dumped_ = true;
      const std::string dir = args_.out_dir + "/failed-" + args_.workload +
                              "-seed" + std::to_string(args_.seed);
      for (const std::string& f : dump_to(dir)) {
        std::cerr << "hpfbench: wrote input " << f << "\n";
      }
    }
  }

  std::vector<std::string> dump_to(const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return {};
    return wl_.dump_inputs(dir);
  }

 private:
  Workload& wl_;
  const Args& args_;
  QuietCpu& cpu_;
  std::int64_t next_ = 0;
  int failures_noted_ = 0;
  bool dumped_ = false;
};

void print_metric(const Metric& m) {
  std::printf("  %-28s %16.6g %-8s (n=%lld)\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args) {
  Tracer setup_tracer;  // the last set-up repetition, traced runs only
  Tracer tracer;        // the traced blocks

  // Set-up: generation, priming and reference computation. In the traced
  // run the kept (last) repetition is traced, so priming's cold pricing is
  // visible.
  QuietCpu cpu;
  cpu.repin();
  std::vector<double> setup_times;
  auto timed_setup = [&]() {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Workload> w = make_workload(args);
    {
      Span span("bench.setup");
      w->setup();
    }
    setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return w;
  };
  std::unique_ptr<Workload> wl;
  for (int r = 0; r < kSetupRepeats; ++r) {
    wl.reset();
    if (args.trace && r == kSetupRepeats - 1) g_tracer = &setup_tracer;
    wl = timed_setup();
    g_tracer = nullptr;
  }
  Runner runner(*wl, args, cpu);
  if (args.dump_inputs && !args.out_dir.empty()) {
    const std::string dir = args.out_dir + "/inputs-" + args.workload +
                            "-seed" + std::to_string(args.seed);
    for (const std::string& f : runner.dump_to(dir)) {
      std::cerr << "hpfbench: wrote input " << f << "\n";
    }
  }

  Pass untraced, traced;
  const std::int64_t min_ops = std::max(wl->count_window(), kMinOps);
  runner.run(untraced, traced, args.seconds, min_ops,
             args.trace ? &tracer : nullptr, [&]() { timed_setup(); });
  const std::int64_t attempted = runner.total_ops();
  std::int64_t failed = untraced.failed + traced.failed;
  std::int64_t verify_failed = 0;
  try {
    verify_failed = wl->verify(attempted);
  } catch (const std::exception& e) {
    std::cerr << "hpfbench: verification threw: " << e.what() << "\n";
    verify_failed = attempted;
  }
  if (verify_failed > 0) {
    runner.note_failure(attempted, "whole-run verification failed");
  }
  failed = std::min(attempted, failed + verify_failed);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Window quiet = quietest(untraced.windows, min_ops);
    const double op_s = static_cast<double>(quiet.op_ns) * 1e-9;
    const std::int64_t n = quiet.ops;
    metrics = {
        {"setup_s", median_of(setup_times), "s",
         static_cast<std::int64_t>(setup_times.size())},
        {"ops_per_s", static_cast<double>(n) / op_s, "1/s", n},
        {"op_us_p50", quiet.latency.quantile_ns(0.50) / 1000.0, "us", n},
        {"op_us_p99", quiet.latency.quantile_ns(0.99) / 1000.0, "us", n},
        {"elem_per_s", static_cast<double>(quiet.elements) / op_s, "1/s",
         n},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        {"ok_rate",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "frac", attempted},
    };
  } else {
    for (const MetricDef& d : kLayerMetrics) {
      metrics.push_back({d.name, 0.0, d.unit, 0});
    }
    wl->layer_metrics(tracer, metrics);
    const double untraced_rate = static_cast<double>(untraced.ops) /
                                 static_cast<double>(untraced.op_ns);
    const double traced_rate = static_cast<double>(traced.ops) /
                               static_cast<double>(traced.op_ns);
    set_metric(metrics, "trace.overhead_frac",
               untraced_rate / traced_rate - 1.0, traced.ops);
    // Self time per layer, per traced op: span time minus child spans,
    // summed over the layer's span names.
    for (const char* layer : {"bench", "directives", "analysis", "exec"}) {
      std::int64_t self_ns = 0;
      const std::string prefix = std::string(layer) + ".";
      for (const auto& l : tracer.layers()) {
        if (std::strncmp(l->name, prefix.c_str(), prefix.size()) == 0) {
          self_ns += l->self_ns;
        }
      }
      set_metric(metrics, std::string("trace.self_") + layer + "_us",
                 static_cast<double>(self_ns) / 1000.0 /
                     static_cast<double>(std::max<std::int64_t>(traced.ops, 1)),
                 traced.ops);
    }
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/trace-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".jsonl";
      std::ofstream file(path);
      if (setup_tracer.write(file) && tracer.write(file)) {
        std::cerr << "hpfbench: wrote spans to " << path << "\n";
      }
    }
  }

  bool finite = true;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      m.value = 0.0;
    }
  }
  const bool correct = failed == 0 && finite;

  std::printf("hpfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  attempted %lld ops, failed %lld (error_rate %.6g)\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const Metric& m : metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace hpfbench

int main(int argc, char** argv) {
  const hpfbench::Args args = hpfbench::parse_args(argc, argv);
  try {
    return hpfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "hpfbench: " << e.what() << "\n";
    return 1;
  }
}
