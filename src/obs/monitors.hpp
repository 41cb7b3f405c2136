// Runtime invariant monitors — the paper's theorems, checked continuously
// *inside* the simulation instead of only in unit tests (Alistarh et al.'s
// relaxed-scheduler guarantees are exactly this kind of always-on bound).
//
// When an InvariantMonitor is attached (obs::Obs), the RIPS engine feeds it
// once per system phase:
//
//   Theorem 1 (balance)   — the post-scheduling loads are all within +-1 of
//                           the average (equivalently: pairwise within 1 and
//                           the total conserved).
//   Theorem 2 (locality)  — the number of tasks that ended the phase away
//                           from where they started never falls below the
//                           Lemma-1 minimum Sum over underloaded nodes of
//                           (target - load) — beating a hard lower bound
//                           means broken accounting. Excess over the bound
//                           (the step-ordered bulk transfers occasionally
//                           move 1-2 tasks a perfect assignment would not)
//                           is tallied as *churn*, a measured quality
//                           figure rather than a violation.
//   Conservation          — no task is queued twice, no already-executed
//                           task is re-queued, and across crash/recovery
//                           every materialized task is either executed or
//                           queued on a live node (lost work is re-injected,
//                           never dropped).
//
// Violations are recorded with phase/node context, never thrown: an
// approximate scheduler (DEM) *should* trip Theorem 1 occasionally — that
// is a finding, not a crash. Tests and the CLI decide how strict to be.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace rips::obs {

class InvariantMonitor {
 public:
  struct Violation {
    std::string monitor;  ///< "theorem1" | "theorem2" | "conservation"
    u64 phase = 0;        ///< system phase index (0-based)
    NodeId node = kInvalidNode;  ///< offending node, if one is identifiable
    std::string detail;
  };

  /// Theorem 1: checks max-min <= 1 over `new_load` and, when
  /// `expected_total` >= 0, that the total was conserved.
  void check_balance(u64 phase, const std::vector<i64>& new_load,
                     i64 expected_total = -1);

  /// Theorem 2: `relocated` tasks ended the phase on a node other than
  /// where they started; `minimum` is the Lemma-1 lower bound. Below the
  /// bound = violation; above it = churn (see churn_tasks()).
  void check_locality(u64 phase, i64 relocated, i64 minimum);

  /// Generic conservation finding (the engine does the data collection —
  /// it owns the queues); `ok` == true is a no-op (and allocates
  /// nothing: `detail` is only copied into a violation).
  void check_conservation(u64 phase, bool ok, NodeId node,
                          std::string_view detail);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  u64 checks_run() const { return checks_run_; }

  /// Task moves above the Lemma-1 bound, summed over phases (0 = the run
  /// achieved the Theorem-2 minimum everywhere).
  i64 churn_tasks() const { return churn_tasks_; }
  u64 churn_phases() const { return churn_phases_; }

  void clear();

  /// Human-readable multi-line report ("all N checks passed" when clean).
  std::string report() const;

 private:
  void add(std::string monitor, u64 phase, NodeId node, std::string detail);

  std::vector<Violation> violations_;
  u64 checks_run_ = 0;
  // A broken invariant tends to break every phase; keep the report finite.
  static constexpr size_t kMaxViolations = 1024;
  u64 violations_dropped_ = 0;
  i64 churn_tasks_ = 0;
  u64 churn_phases_ = 0;
};

}  // namespace rips::obs
