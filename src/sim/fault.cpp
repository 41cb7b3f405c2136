#include "sim/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace rips::sim {

namespace {

/// Stateless mix of the plan seed with a message identity; the result is a
/// uniform u64 independent of evaluation order.
u64 mix(u64 seed, u64 op_id, NodeId from, NodeId to, i64 attempt) {
  u64 s = seed;
  s ^= 0x9E3779B97F4A7C15ULL + op_id;
  s = splitmix64(s);
  s ^= (static_cast<u64>(static_cast<u32>(from)) << 32) |
       static_cast<u64>(static_cast<u32>(to));
  s = splitmix64(s);
  s ^= static_cast<u64>(attempt);
  return splitmix64(s);
}

double to_unit(u64 x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

}  // namespace

FaultPlan FaultPlan::generate(u64 seed, i32 num_nodes, const FaultSpec& spec) {
  RIPS_CHECK_MSG(num_nodes >= 1, "fault plan needs a machine");
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = spec.drop_prob;
  plan.delay_prob = spec.delay_prob;
  plan.delay_ns = spec.delay_ns;

  Rng rng(seed ^ 0xFA117ULL);
  if (spec.crash_mtbf_ns > 0.0 && spec.horizon_ns > 0) {
    const i32 cap = std::min(spec.max_crashes, num_nodes - 1);
    std::vector<char> crashed(static_cast<size_t>(num_nodes), 0);
    double t = 0.0;
    while (static_cast<i32>(plan.crashes.size()) < cap) {
      t += rng.next_exponential(spec.crash_mtbf_ns);
      if (t >= static_cast<double>(spec.horizon_ns)) break;
      const NodeId victim =
          static_cast<NodeId>(rng.next_below(static_cast<u64>(num_nodes)));
      if (crashed[static_cast<size_t>(victim)]) continue;  // fail-stop: once
      crashed[static_cast<size_t>(victim)] = 1;
      plan.crashes.push_back({victim, static_cast<SimTime>(t)});
    }
  }
  if (spec.slowdown_mtbf_ns > 0.0 && spec.horizon_ns > 0 &&
      spec.slowdown_duration_ns > 0) {
    double t = 0.0;
    while (true) {
      t += rng.next_exponential(spec.slowdown_mtbf_ns);
      if (t >= static_cast<double>(spec.horizon_ns)) break;
      const NodeId victim =
          static_cast<NodeId>(rng.next_below(static_cast<u64>(num_nodes)));
      const auto start = static_cast<SimTime>(t);
      plan.slowdowns.push_back({victim, start,
                                start + spec.slowdown_duration_ns,
                                std::max(1.0, spec.slowdown_factor)});
    }
  }
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              return a.time_ns != b.time_ns ? a.time_ns < b.time_ns
                                            : a.node < b.node;
            });
  return plan;
}

std::string FaultPlan::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "faults[seed=%llu crashes=%zu slowdowns=%zu drop=%.3f "
                "delay=%.3f/%lldns]",
                static_cast<unsigned long long>(seed), crashes.size(),
                slowdowns.size(), drop_prob, delay_prob,
                static_cast<long long>(delay_ns));
  return buf;
}

FaultInjector::FaultInjector(const FaultPlan& plan, i32 num_nodes)
    : plan_(plan), num_nodes_(num_nodes) {
  RIPS_CHECK(num_nodes >= 1);
  RIPS_CHECK_MSG(plan_.drop_prob >= 0.0 && plan_.drop_prob < 1.0,
                 "drop probability must be in [0, 1)");
  RIPS_CHECK_MSG(plan_.delay_prob >= 0.0 && plan_.delay_prob <= 1.0,
                 "delay probability must be in [0, 1]");
  for (const CrashFault& c : plan_.crashes) {
    RIPS_CHECK_MSG(c.node >= 0 && c.node < num_nodes,
                   "crash fault names a node outside the machine");
  }
  for (const SlowdownFault& s : plan_.slowdowns) {
    RIPS_CHECK_MSG(s.node >= 0 && s.node < num_nodes,
                   "slowdown fault names a node outside the machine");
    RIPS_CHECK_MSG(s.end_ns > s.start_ns && s.factor >= 1.0,
                   "slowdown window must be non-empty with factor >= 1");
  }
  std::sort(plan_.crashes.begin(), plan_.crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              return a.time_ns != b.time_ns ? a.time_ns < b.time_ns
                                            : a.node < b.node;
            });

  // Slowdown step table: per node, sweep the window edges in time order
  // keeping the multiset of open factors; every distinct edge time starts
  // a step whose factor is the largest open one (1.0 when none is open).
  std::vector<const SlowdownFault*> by_node;
  by_node.reserve(plan_.slowdowns.size());
  for (const SlowdownFault& s : plan_.slowdowns) by_node.push_back(&s);
  std::stable_sort(by_node.begin(), by_node.end(),
                   [](const SlowdownFault* a, const SlowdownFault* b) {
                     return a->node < b->node;
                   });
  step_offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  struct Edge {
    SimTime t;
    double factor;
    bool open;
  };
  std::vector<Edge> edges;
  std::multiset<double> active;
  size_t i = 0;
  for (NodeId node = 0; node < num_nodes; ++node) {
    step_offsets_[static_cast<size_t>(node)] = step_t_.size();
    edges.clear();
    for (; i < by_node.size() && by_node[i]->node == node; ++i) {
      edges.push_back({by_node[i]->start_ns, by_node[i]->factor, true});
      edges.push_back({by_node[i]->end_ns, by_node[i]->factor, false});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.t < b.t; });
    for (size_t e = 0; e < edges.size();) {
      const SimTime t = edges[e].t;
      for (; e < edges.size() && edges[e].t == t; ++e) {
        if (edges[e].open) {
          active.insert(edges[e].factor);
        } else {
          active.erase(active.find(edges[e].factor));
        }
      }
      step_t_.push_back(t);
      step_factor_.push_back(active.empty() ? 1.0 : *active.rbegin());
    }
  }
  step_offsets_[static_cast<size_t>(num_nodes)] = step_t_.size();
}

double FaultInjector::slowdown_factor(NodeId node, SimTime t) const {
  if (node < 0 || node >= num_nodes_) return 1.0;
  const size_t lo = step_offsets_[static_cast<size_t>(node)];
  const size_t hi = step_offsets_[static_cast<size_t>(node) + 1];
  // The last step starting at or before t, if any.
  const size_t k = static_cast<size_t>(
      std::upper_bound(step_t_.begin() + static_cast<i64>(lo),
                       step_t_.begin() + static_cast<i64>(hi), t) -
      step_t_.begin());
  return k == lo ? 1.0 : step_factor_[k - 1];
}

SimTime FaultInjector::scaled_work(NodeId node, SimTime t,
                                   SimTime base_ns) const {
  if (plan_.slowdowns.empty()) return base_ns;
  const double factor = slowdown_factor(node, t);
  if (factor == 1.0) return base_ns;
  return static_cast<SimTime>(static_cast<double>(base_ns) * factor);
}

bool FaultInjector::drop_message(u64 op_id, NodeId from, NodeId to,
                                 i64 attempt) const {
  if (plan_.drop_prob <= 0.0) return false;
  return to_unit(mix(plan_.seed, op_id, from, to, attempt)) < plan_.drop_prob;
}

SimTime FaultInjector::message_delay(u64 op_id, NodeId from, NodeId to) const {
  if (plan_.delay_prob <= 0.0 || plan_.delay_ns <= 0) return 0;
  // Salt distinguishes the delay draw from the drop draw of attempt 0.
  const u64 x = mix(plan_.seed ^ 0xDE1A7ULL, op_id, from, to, 0);
  return to_unit(x) < plan_.delay_prob ? plan_.delay_ns : 0;
}

}  // namespace rips::sim
