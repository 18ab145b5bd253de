// The plan service: one process-wide, sharded, thread-safe cache of sealed
// communication plans, shared by every interp session.
//
// Production framing (ROADMAP item 3): an interp session is a user, and
// heavy traffic means thousands of concurrent ProgramStates executing
// directive scripts against the same small set of layout shapes. Since the
// PlanCache keys plans purely on *content* signatures
// (Distribution::append_plan_signature, exec/comm_plan.hpp), a priced
// CommPlan is valid for ANY session whose layouts match — so N sessions
// paying N cold prices for identical content is pure waste. The PlanService
// turns the per-session memo into a serving-stack cache hierarchy:
//
//   L1  the session-local PlanCache (exec/comm_plan.hpp), unlocked, small.
//       The warm path of a hot loop — the 2nd..Nth Jacobi iteration —
//       replays from here and never touches a shard lock.
//   L2  this service: sealed plans hash-sharded by PlanKey across S
//       independent shards, each a PlanCache — the same LRU and
//       dead-processor rule as the L1 — behind its own mutex. A session's
//       first touch of a key misses its L1, takes exactly one shard lock,
//       and — when any session has priced that content before — replays
//       warm and back-fills its L1. Cold misses price once, publish to both
//       levels, and every later session replays.
//
// Sharding keeps the lock hold times short and the contention independent:
// two sessions pricing different statements almost always hit different
// shards. Shard counters (hits / misses / inserts / evictions) are
// monotonically increasing across the process lifetime — clear() drops
// entries but never rewinds a counter — so scrapes can always be diffed.
// PlanServiceStats snapshots the per-shard counters and aggregates them
// into a serving-style report: hit rate, occupancy, and eviction pressure
// per shard and in total.
//
// Thread-safety contract: lookup/insert/stats/clear are safe to call from
// any number of threads concurrently. The plans handed out are immutable
// (sealed CommPlans behind shared_ptr<const>). What the service does NOT
// make safe is sharing one ProgramState between threads — a session is
// single-threaded; it is the *service* that is shared.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/comm_plan.hpp"

namespace hpfnt {

struct PlanServiceConfig {
  /// Number of independent shards (clamped to >= 1). More shards = less
  /// lock contention; 16 keeps the worst case at ~K/16 threads per lock.
  std::size_t shards = 16;
  /// LRU bound per shard (clamped to >= 1); total capacity is
  /// shards * shard_capacity plans.
  std::size_t shard_capacity = 64;
};

/// One shard's monotonic counters plus its current occupancy.
struct PlanShardStats {
  Extent hits = 0;
  Extent misses = 0;
  Extent inserts = 0;    ///< insert calls that stored or refreshed a plan
  Extent evictions = 0;  ///< entries dropped from the LRU tail
  Extent invalidations = 0;  ///< entries dropped for referencing a dead proc
  std::size_t size = 0;
  std::size_t capacity = 0;
};

/// A consistent-enough snapshot of every shard (each shard is snapshotted
/// atomically under its own lock; shards are not frozen relative to each
/// other, which a metrics scrape never needs).
struct PlanServiceStats {
  std::vector<PlanShardStats> shards;

  Extent hits() const noexcept;
  Extent misses() const noexcept;
  Extent inserts() const noexcept;
  Extent evictions() const noexcept;
  Extent invalidations() const noexcept;
  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept;

  /// hits / (hits + misses); 0 before any lookup.
  double hit_rate() const noexcept;
  /// size / capacity across all shards.
  double occupancy() const noexcept;
  /// evictions / inserts; > 0 means the working set exceeds capacity.
  double eviction_pressure() const noexcept;

  /// Serving-style per-shard metrics report (machine/metrics.hpp table):
  /// one row per shard plus a totals row.
  std::string to_string() const;
};

/// The process-wide sharded plan cache (L2). See the file comment for the
/// cache hierarchy; ProgramState::set_plan_service attaches a session.
class PlanService {
 public:
  explicit PlanService(PlanServiceConfig config = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// The sealed plan for `key`, or null. Counts a hit or a miss on the
  /// key's shard and promotes the entry to most-recently-used.
  std::shared_ptr<const CommPlan> lookup(const std::string& key);

  /// Lookup under the dead-processor rule (PlanCache::lookup with a
  /// Machine), under the shard lock: a plan referencing a failed processor
  /// is erased and can never be served again, to this session or any
  /// other. Safe to call concurrently with fail_processor — the failure
  /// snapshot is read atomically (machine/topology.hpp).
  std::shared_ptr<const CommPlan> lookup(const std::string& key,
                                         const Machine& topo);

  /// Publishes a sealed plan (unsealed/null plans are ignored). Re-inserts
  /// of an existing key refresh the entry and promote it; both count as an
  /// insert. Two sessions racing to publish the same cold key is benign —
  /// the plans are interchangeable by construction (the key IS the content
  /// signature of the priced schedule).
  void insert(const std::string& key, std::shared_ptr<const CommPlan> plan);

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// The shard `key` maps to (stable for the service's lifetime; exposed
  /// for tests and shard-imbalance diagnostics).
  std::size_t shard_of(const std::string& key) const noexcept;

  /// Snapshot of every shard's counters and occupancy.
  PlanServiceStats stats() const;

  /// Drops every cached plan. Counters are monotonic and keep their
  /// values — a metrics scrape can always be diffed across a clear.
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    // Guarded by mu — stats() snapshots a shard under the same lock, so a
    // snapshot's counters and occupancy are mutually consistent.
    PlanCache cache;
  };

  std::vector<Shard> shards_;  // sized once; Shard is immovable (mutex)
};

/// The default process-wide service instance (constructed on first use,
/// default config). Sessions that want shared caching without managing a
/// service of their own attach to this one; benches and tests construct
/// private PlanService instances for controlled A/B runs.
PlanService& global_plan_service();

}  // namespace hpfnt
