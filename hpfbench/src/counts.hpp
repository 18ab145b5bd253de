// The count metrics every workload reads off the library's public
// counters: the session's L1 plan cache, the comm engine's modeled totals
// and fault retries, and the shared plan service.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exec/storage.hpp"
#include "service/plan_service.hpp"

namespace hpfbench {

using Counts = std::vector<std::pair<std::string, double>>;

inline Counts state_counts(hpfnt::ProgramState& state) {
  const hpfnt::PlanCache& l1 = state.plans();
  const hpfnt::CommEngine& c = state.comm();
  return {{"exec.l1_hits", static_cast<double>(l1.hits())},
          {"exec.l1_misses", static_cast<double>(l1.misses())},
          {"exec.l1_evictions", static_cast<double>(l1.evictions())},
          {"exec.l1_invalidations", static_cast<double>(l1.invalidations())},
          {"machine.messages", static_cast<double>(c.total_messages())},
          {"machine.bytes", static_cast<double>(c.total_bytes())},
          {"machine.modeled_us", c.total_time_us()},
          {"machine.exposed_comm_us", c.total_exposed_comm_us()},
          {"machine.hidden_comm_us", c.total_hidden_comm_us()},
          {"fault.retries", static_cast<double>(c.total_retries())},
          {"fault.retry_us", c.total_retry_us()}};
}

/// Appends exec.l1_hit_rate from the exec.l1_hits/misses entries.
inline void add_l1_hit_rate(Counts& counts) {
  double hits = 0.0, misses = 0.0;
  for (const auto& [name, value] : counts) {
    if (name == "exec.l1_hits") hits = value;
    if (name == "exec.l1_misses") misses = value;
  }
  counts.push_back({"exec.l1_hit_rate", hits / (hits + misses)});
}

inline void add_service_counts(const hpfnt::PlanService& service,
                               Counts& counts) {
  const hpfnt::PlanServiceStats s = service.stats();
  counts.push_back({"service.hits", static_cast<double>(s.hits())});
  counts.push_back({"service.misses", static_cast<double>(s.misses())});
  counts.push_back({"service.inserts", static_cast<double>(s.inserts())});
  counts.push_back({"service.evictions", static_cast<double>(s.evictions())});
  counts.push_back(
      {"service.invalidations", static_cast<double>(s.invalidations())});
  counts.push_back({"service.hit_rate", s.hit_rate()});
}

}  // namespace hpfbench
