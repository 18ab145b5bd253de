// Shared pieces of the benchmark binary: clocks, a fixed-memory latency
// histogram, the span tracer, and the Workload interface each workload
// implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace hpfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency histogram with 2^sub_bits linear sub-buckets per power of two
/// (by default 1024, a relative resolution below 0.1%) and quantiles
/// interpolated inside a bucket. Its memory is fixed, so the sample count
/// never shows up in peak RSS — a faster library must not read as a memory
/// regression.
class Histogram {
 public:
  explicit Histogram(int sub_bits = 10);
  void add(std::int64_t ns);
  /// Adds every sample of `other`, which must have the same sub_bits.
  void merge(const Histogram& other);
  std::int64_t count() const noexcept { return count_; }
  /// The q-quantile (q in [0, 1]) in nanoseconds; 0 when empty.
  double quantile_ns(double q) const;

 private:
  std::size_t bucket_of(std::int64_t v) const;
  void bucket_range(std::size_t b, double* lo, double* width) const;

  int sub_bits_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
};

/// One recorded span: name, start, end, the span that encloses it (-1 for
/// a root) and the op it belongs to (-1 outside any op).
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = -1;
};

/// In-memory span recorder. Spans are opened by the benchmark around its
/// calls into each library layer, so every time here is measured from
/// outside the library. Per span name it keeps a duration histogram and the
/// total self time (duration minus the time covered by child spans); the
/// first kMaxRecords spans are also kept verbatim and written out at exit.
class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 18;

  struct Layer {
    const char* name = nullptr;
    Histogram duration;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t count = 0;
  };

  void set_op(std::int64_t op) noexcept { op_ = op; }
  void begin(const char* name);
  /// Closes the innermost open span and returns its duration.
  std::int64_t end();

  /// The named layer's aggregate, or null when no such span was recorded.
  const Layer* layer(const char* name) const;
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// Median span duration of `name` in microseconds (0 when absent).
  double median_us(const char* name) const;

  /// Writes the kept spans as JSON lines, then one self-time summary line
  /// per span name. Returns false when the stream fails.
  bool write(std::ostream& out) const;

 private:
  struct Open {
    std::size_t layer = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t record = -1;
    std::int32_t parent_record = -1;
  };

  std::size_t layer_index(const char* name);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  std::int64_t op_ = -1;
};

/// The active tracer, or null when the run is untraced (then a Span costs
/// one branch).
extern Tracer* g_tracer;

/// Scoped span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name) : active_(g_tracer != nullptr) {
    if (active_) g_tracer->begin(name);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its duration (0 when untraced or when
  /// already stopped).
  std::int64_t stop() {
    if (!active_) return 0;
    active_ = false;
    return g_tracer->end();
  }

 private:
  bool active_;
};

/// One metric as printed: name, value, unit and the number of samples it
/// was computed from.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// One benchmark workload: a closed loop with one caller. The harness
/// constructs a fresh instance per set-up repetition and keeps the last.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generation, priming and reference computation.
  virtual void setup() = 0;
  /// The op the caller waits on; the harness times exactly this call.
  /// Returns the LHS element updates it performed.
  virtual std::int64_t run_op(std::int64_t i) = 0;
  /// The per-op output check, run untimed right after run_op.
  virtual bool check_op(std::int64_t i) = 0;
  /// Pure work beside op i that the traced blocks time on their own (a key
  /// builder, the handwritten yardstick); never anything that changes the
  /// library's cache state.
  virtual void traced_side(std::int64_t /*i*/) {}
  /// Ops in the count window: count metrics cover the set-up and exactly
  /// this many ops, so they repeat exactly for one seed.
  virtual std::int64_t count_window() const = 0;
  /// Called once, right after op count_window() - 1.
  virtual void snapshot_counts() = 0;
  /// Whole-run check after `ops` ops; returns the number of failed ops.
  virtual std::int64_t verify(std::int64_t ops) = 0;
  /// Overrides this workload's per-layer metrics (the harness pre-fills
  /// every per-layer name with 0); `tracer` holds the traced pass.
  virtual void layer_metrics(const Tracer& tracer,
                             std::vector<Metric>& out) = 0;
  /// Writes the generated inputs (directive scripts) to `dir` so a failing
  /// op can be replayed with hpflint; returns the files written.
  virtual std::vector<std::string> dump_inputs(const std::string& dir) = 0;
};

/// Sets metric `name` in `out` (which already holds every per-layer name).
void set_metric(std::vector<Metric>& out, const std::string& name,
                double value, std::int64_t samples);

std::unique_ptr<Workload> make_jacobi_large(std::uint64_t seed);
std::unique_ptr<Workload> make_small_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_script_session(std::uint64_t seed);

}  // namespace hpfbench
