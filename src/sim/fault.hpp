// Deterministic fault injection for the simulated machine.
//
// A FaultPlan is a fully materialized schedule of misbehaviour — fail-stop
// node crashes at fixed sim-times, transient per-node slowdown windows, and
// per-message drop/delay probabilities for collective steps. Plans are
// either written out by hand (targeted tests) or expanded from a seed +
// FaultSpec (MTBF sweeps); either way every run against the same plan is
// bit-reproducible: all message-level randomness is a pure hash of
// (plan seed, operation id, endpoints, attempt), never of wall time or of
// iteration order.
//
// The FaultInjector is the read-only query interface the engine and the
// collective layer consult during a run. It holds no mutable state, so one
// injector can serve repeated runs and concurrent what-if passes.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace rips::sim {

/// Fail-stop crash: the node executes nothing at or after `time_ns` and
/// never sends another message. Crash times are honored at user-phase
/// granularity by the RIPS engine (a crash timed inside a system phase
/// takes effect at the start of the next user phase).
struct CrashFault {
  NodeId node = kInvalidNode;
  SimTime time_ns = 0;
};

/// Transient degradation: tasks *starting* inside [start_ns, end_ns) on
/// `node` run `factor` times slower (factor >= 1).
struct SlowdownFault {
  NodeId node = kInvalidNode;
  SimTime start_ns = 0;
  SimTime end_ns = 0;
  double factor = 1.0;
};

/// Knobs for FaultPlan::generate. MTBFs are whole-machine means: crash
/// inter-arrival times are exponential with mean `crash_mtbf_ns` and each
/// event picks a victim node uniformly.
struct FaultSpec {
  SimTime horizon_ns = 0;          ///< generate events in [0, horizon)
  double crash_mtbf_ns = 0.0;      ///< 0 = no crashes
  i32 max_crashes = 1 << 30;       ///< cap (also capped at num_nodes - 1)
  double slowdown_mtbf_ns = 0.0;   ///< 0 = no slowdowns
  double slowdown_factor = 4.0;
  SimTime slowdown_duration_ns = 0;
  double drop_prob = 0.0;          ///< per collective message
  double delay_prob = 0.0;         ///< per collective message
  SimTime delay_ns = 0;            ///< extra latency when delayed
};

struct FaultPlan {
  u64 seed = 0;
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  SimTime delay_ns = 0;
  std::vector<CrashFault> crashes;      ///< kept sorted by time
  std::vector<SlowdownFault> slowdowns;

  bool empty() const {
    return crashes.empty() && slowdowns.empty() && drop_prob == 0.0 &&
           delay_prob == 0.0;
  }

  /// Expands a seed + spec into a concrete plan. Never schedules more than
  /// num_nodes - 1 crashes (the machine keeps at least one survivor) and
  /// never crashes the same node twice.
  static FaultPlan generate(u64 seed, i32 num_nodes, const FaultSpec& spec);

  std::string summary() const;
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, i32 num_nodes);

  const FaultPlan& plan() const { return plan_; }
  i32 num_nodes() const { return num_nodes_; }

  bool has_message_faults() const {
    return plan_.drop_prob > 0.0 || plan_.delay_prob > 0.0;
  }

  /// Crash events, sorted by time (ties broken by node id).
  const std::vector<CrashFault>& crashes() const { return plan_.crashes; }

  /// Work-time multiplier for a task starting at `t` on `node` (>= 1):
  /// the largest factor among the node's windows [start, end) holding `t`.
  /// A binary search over the node's piecewise-constant factor table.
  double slowdown_factor(NodeId node, SimTime t) const;

  /// `base_ns` stretched by the slowdown window active at `t`, if any.
  SimTime scaled_work(NodeId node, SimTime t, SimTime base_ns) const;

  /// Deterministic per-message drop decision for attempt `attempt` of the
  /// (from -> to) message of collective operation `op_id`.
  bool drop_message(u64 op_id, NodeId from, NodeId to, i64 attempt) const;

  /// Deterministic extra latency for the (from -> to) message of `op_id`
  /// (0 when the message is not delayed).
  SimTime message_delay(u64 op_id, NodeId from, NodeId to) const;

 private:
  FaultPlan plan_;
  i32 num_nodes_ = 0;
  // Per-node slowdown factor as a step function, CSR by node: over
  // [step_t_[k], step_t_[k+1]) the factor is step_factor_[k]; before a
  // node's first step and from its last one on it is 1.0.
  std::vector<size_t> step_offsets_;
  std::vector<SimTime> step_t_;
  std::vector<double> step_factor_;
};

}  // namespace rips::sim
