#include "obs/monitors.hpp"

#include <algorithm>
#include <numeric>

#include "util/simd.hpp"

namespace rips::obs {

void InvariantMonitor::add(std::string monitor, u64 phase, NodeId node,
                           std::string detail) {
  if (violations_.size() >= kMaxViolations) {
    violations_dropped_ += 1;
    return;
  }
  violations_.push_back(
      {std::move(monitor), phase, node, std::move(detail)});
}

void InvariantMonitor::check_balance(u64 phase,
                                     const std::vector<i64>& new_load,
                                     i64 expected_total) {
  checks_run_ += 1;
  if (new_load.empty()) return;
  // Min/max kernel on the happy path; ranks are only recovered (second
  // scan) for the violation message.
  const simd::MinMax mm = simd::minmax_i64(new_load.data(), new_load.size());
  if (mm.max - mm.min > 1) {
    const auto [lo_it, hi_it] =
        std::minmax_element(new_load.begin(), new_load.end());
    const auto hi_node =
        static_cast<NodeId>(hi_it - new_load.begin());
    add("theorem1", phase, hi_node,
        "post-schedule load spread " + std::to_string(*hi_it - *lo_it) +
            " > 1 (max " + std::to_string(*hi_it) + " at rank " +
            std::to_string(hi_node) + ", min " + std::to_string(*lo_it) +
            " at rank " + std::to_string(lo_it - new_load.begin()) + ")");
  }
  if (expected_total >= 0) {
    const i64 total = simd::sum_i64(new_load.data(), new_load.size());
    if (total != expected_total) {
      add("theorem1", phase, kInvalidNode,
          "scheduler lost or invented load: total " + std::to_string(total) +
              " != expected " + std::to_string(expected_total));
    }
  }
}

void InvariantMonitor::check_locality(u64 phase, i64 relocated, i64 minimum) {
  checks_run_ += 1;
  if (relocated < minimum) {
    // Lemma 1 is a hard lower bound on ANY schedule reaching the new loads;
    // beating it means the accounting (or the scheduler) is broken.
    add("theorem2", phase, kInvalidNode,
        std::to_string(relocated) + " tasks ended the phase non-locally, "
        "below the Lemma-1 minimum " + std::to_string(minimum));
  } else if (relocated > minimum) {
    // Excess over the bound is churn: the assignment-level theorem holds,
    // but the step-ordered bulk transfers realized it sub-optimally (a node
    // sent its own tasks before a later incoming transfer it could have
    // forwarded arrived). A quality figure, not a violation.
    churn_tasks_ += relocated - minimum;
    churn_phases_ += 1;
  }
}

void InvariantMonitor::check_conservation(u64 phase, bool ok, NodeId node,
                                          std::string_view detail) {
  checks_run_ += 1;
  if (!ok) add("conservation", phase, node, std::string(detail));
}

void InvariantMonitor::clear() {
  violations_.clear();
  checks_run_ = 0;
  violations_dropped_ = 0;
  churn_tasks_ = 0;
  churn_phases_ = 0;
}

std::string InvariantMonitor::report() const {
  std::string churn;
  if (churn_tasks_ > 0) {
    churn = "  transfer churn: " + std::to_string(churn_tasks_) +
            " task move(s) above the Lemma-1 bound across " +
            std::to_string(churn_phases_) + " phase(s)\n";
  }
  if (violations_.empty()) {
    return "invariant monitors: all " + std::to_string(checks_run_) +
           " checks passed\n" + churn;
  }
  std::string out = "invariant monitors: " +
                    std::to_string(violations_.size()) + " violation(s) in " +
                    std::to_string(checks_run_) + " checks\n";
  for (const Violation& v : violations_) {
    out += "  [" + v.monitor + "] phase " + std::to_string(v.phase);
    if (v.node != kInvalidNode) out += " node " + std::to_string(v.node);
    out += ": " + v.detail + "\n";
  }
  if (violations_dropped_ > 0) {
    out += "  (+" + std::to_string(violations_dropped_) + " more dropped)\n";
  }
  out += churn;
  return out;
}

}  // namespace rips::obs
