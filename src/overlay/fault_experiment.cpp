#include "overlay/fault_experiment.hpp"

#include <memory>
#include <stdexcept>

#include "overlay/assoc_policy.hpp"
#include "overlay/shortcuts.hpp"

namespace aar::overlay {

using util::put_u32;
using util::put_u64;

void append_outcome(std::vector<std::uint8_t>& out, const SearchOutcome& o) {
  out.push_back(o.hit ? 1 : 0);
  out.push_back(o.timed_out ? 1 : 0);
  out.push_back(o.degraded_to_flood ? 1 : 0);
  out.push_back(o.used_fallback ? 1 : 0);
  out.push_back(o.rule_routed ? 1 : 0);
  put_u32(out, o.hops_to_first_hit);
  put_u32(out, o.replicas_found);
  put_u32(out, o.nodes_reached);
  put_u32(out, o.retries_used);
  put_u64(out, o.query_messages);
  put_u64(out, o.reply_messages);
  put_u64(out, o.probe_messages);
  put_u64(out, o.dropped_messages);
  put_u64(out, o.elapsed_stamps);
  put_u32(out, static_cast<std::uint32_t>(o.retry_stamps.size()));
  for (std::uint64_t stamp : o.retry_stamps) put_u64(out, stamp);
}

PolicyFactory scenario_policy_factory(const std::string& name) {
  if (name == "flooding") {
    return [](NodeId) { return std::make_unique<FloodingPolicy>(); };
  }
  if (name == "shortcuts") {
    return [](NodeId) { return std::make_unique<InterestShortcutsPolicy>(); };
  }
  if (name == "association") {
    return [](NodeId) { return std::make_unique<AssociationRoutingPolicy>(); };
  }
  throw std::runtime_error("unknown scenario policy: " + name);
}

}  // namespace aar::overlay
