#include "service/plan_service.hpp"

#include <functional>

#include "machine/metrics.hpp"
#include "support/strings.hpp"

namespace hpfnt {

// --- PlanServiceStats --------------------------------------------------------

namespace {

template <class T>
T total(const std::vector<PlanShardStats>& shards, T PlanShardStats::*field) {
  T n = 0;
  for (const PlanShardStats& s : shards) n += s.*field;
  return n;
}

}  // namespace

Extent PlanServiceStats::hits() const noexcept {
  return total(shards, &PlanShardStats::hits);
}

Extent PlanServiceStats::misses() const noexcept {
  return total(shards, &PlanShardStats::misses);
}

Extent PlanServiceStats::inserts() const noexcept {
  return total(shards, &PlanShardStats::inserts);
}

Extent PlanServiceStats::evictions() const noexcept {
  return total(shards, &PlanShardStats::evictions);
}

Extent PlanServiceStats::invalidations() const noexcept {
  return total(shards, &PlanShardStats::invalidations);
}

std::size_t PlanServiceStats::size() const noexcept {
  return total(shards, &PlanShardStats::size);
}

std::size_t PlanServiceStats::capacity() const noexcept {
  return total(shards, &PlanShardStats::capacity);
}

double PlanServiceStats::hit_rate() const noexcept {
  const Extent total = hits() + misses();
  return total == 0 ? 0.0
                    : static_cast<double>(hits()) / static_cast<double>(total);
}

double PlanServiceStats::occupancy() const noexcept {
  const std::size_t cap = capacity();
  return cap == 0 ? 0.0
                  : static_cast<double>(size()) / static_cast<double>(cap);
}

double PlanServiceStats::eviction_pressure() const noexcept {
  const Extent ins = inserts();
  return ins == 0
             ? 0.0
             : static_cast<double>(evictions()) / static_cast<double>(ins);
}

std::string PlanServiceStats::to_string() const {
  TextTable table({"shard", "hits", "misses", "hit rate", "inserts",
                   "evictions", "invalidations", "plans", "occupancy"});
  auto row = [&](const std::string& name, const PlanShardStats& s) {
    const Extent lookups = s.hits + s.misses;
    const double rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(s.hits) /
                           static_cast<double>(lookups);
    const double occ =
        s.capacity == 0 ? 0.0
                        : static_cast<double>(s.size) /
                              static_cast<double>(s.capacity);
    table.add_row({name, format_count(s.hits), format_count(s.misses),
                   format_pct(rate), format_count(s.inserts),
                   format_count(s.evictions), format_count(s.invalidations),
                   format_count(static_cast<Extent>(s.size)),
                   format_pct(occ)});
  };
  for (std::size_t i = 0; i < shards.size(); ++i) {
    row(cat("#", i), shards[i]);
  }
  PlanShardStats total;
  total.hits = hits();
  total.misses = misses();
  total.inserts = inserts();
  total.evictions = evictions();
  total.invalidations = invalidations();
  total.size = size();
  total.capacity = capacity();
  row("total", total);
  return table.to_string();
}

// --- PlanService -------------------------------------------------------------

PlanService::PlanService(PlanServiceConfig config)
    : shards_(config.shards < 1 ? 1 : config.shards) {
  for (Shard& shard : shards_) shard.cache.set_capacity(config.shard_capacity);
}

std::size_t PlanService::shard_of(const std::string& key) const noexcept {
  // The plan keys are binary signature strings with most of their entropy
  // spread through the bytes; std::hash mixes them well enough that the
  // shard index and the per-shard unordered_map buckets stay decorrelated.
  return std::hash<std::string>{}(key) % shards_.size();
}

std::shared_ptr<const CommPlan> PlanService::lookup(const std::string& key) {
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.cache.lookup(key);
}

std::shared_ptr<const CommPlan> PlanService::lookup(const std::string& key,
                                                    const Machine& topo) {
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.cache.lookup(key, topo);
}

void PlanService::insert(const std::string& key,
                         std::shared_ptr<const CommPlan> plan) {
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cache.insert(key, std::move(plan));
}

PlanServiceStats PlanService::stats() const {
  PlanServiceStats out;
  out.shards.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const PlanCache& c = shard.cache;
    out.shards.push_back({c.hits(), c.misses(), c.inserts(), c.evictions(),
                          c.invalidations(), c.size(), c.capacity()});
  }
  return out;
}

void PlanService::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cache.clear();
  }
}

PlanService& global_plan_service() {
  // Meyers singleton: constructed thread-safely on first use, never
  // destroyed before any user during normal operation (static storage).
  static PlanService service;
  return service;
}

}  // namespace hpfnt
