// Probes the benchmark attaches to the engine from outside: a wrapper
// around the ParallelScheduler handed to RipsEngine, and a telemetry
// subscriber that stamps the host clock at run-begin and at every phase
// sample.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/telemetry.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

/// What a ProbedScheduler does around each schedule() call.
enum class ProbeMode {
  kForward,  ///< nothing: the timed repetitions
  kCheck,    ///< count and check every result (Theorem 1, conservation,
             ///< plan replay, link-locality)
  kTime,     ///< count and time every call, one span each (traced pass)
};

struct ScheduleStats {
  u64 calls = 0;
  u64 transfers = 0;
  u64 comm_steps = 0;
  u64 active_nodes = 0;  ///< Σ over calls of nodes with nonzero load
  u64 node_slots = 0;    ///< Σ over calls of nodes
  u64 check_failures = 0;
  std::string first_failure;
  /// Spans of schedule() calls not yet attributed to a system phase.
  std::vector<i64> open_spans;
};

class ProbedScheduler final : public rips::sched::ParallelScheduler {
 public:
  ProbedScheduler(rips::sched::ParallelScheduler& inner, ProbeMode mode,
                  ScheduleStats& stats, SpanLog* spans);
  /// Owning variant, for schedulers rebuilt over the survivors of a crash.
  ProbedScheduler(std::unique_ptr<rips::sched::ParallelScheduler> owned,
                  ProbeMode mode, ScheduleStats& stats, SpanLog* spans);

  const rips::sched::ScheduleResult& schedule(
      const std::vector<rips::i64>& load) override;
  const rips::topo::Topology& topology() const override {
    return inner_.topology();
  }
  std::string name() const override { return inner_.name(); }

 private:
  void check(const std::vector<rips::i64>& load,
             const rips::sched::ScheduleResult& r);

  std::unique_ptr<rips::sched::ParallelScheduler> owned_;
  rips::sched::ParallelScheduler& inner_;
  ProbeMode mode_;
  ScheduleStats& stats_;
  SpanLog* spans_;
  std::vector<rips::i64> replay_;
};

/// The engine's default degraded-machine factory, wrapped the same way.
rips::sched::SchedulerFactory probed_factory(ProbeMode mode,
                                             ScheduleStats& stats,
                                             SpanLog* spans);

/// Telemetry subscriber of one engine run at a time (reset by start()).
/// Always stamps run-begin, counts executions from the phase samples and
/// the executions crashes destroyed from the crash events; with a SpanLog
/// it also records the init, system-phase, user-phase and finalize windows
/// of the run as spans.
class PhaseClock final : public rips::obs::TelemetrySubscriber {
 public:
  PhaseClock(SpanLog* spans, ScheduleStats* sched)
      : spans_(spans), sched_(sched) {}

  /// Call right before engine.run(); `parent` is the run's span.
  void start(Clock::time_point run_call, i64 parent);
  /// Call right after engine.run() returned.
  void finish(Clock::time_point returned);

  void on_run_begin(const rips::obs::RunStart& run) override;
  void on_phase(const rips::obs::PhaseSample& sample) override;
  void on_event(const rips::obs::TelemetryEvent& event) override;

  Clock::time_point run_begin() const { return begin_; }
  /// Executions summed over user-phase and segment samples.
  u64 executions() const { return executions_; }
  u64 user_phases() const { return user_phases_; }
  /// Executions lost with crashed nodes (summed over crash events).
  u64 lost_executions() const { return lost_; }

 private:
  SpanLog* spans_;
  ScheduleStats* sched_;
  i64 parent_ = SpanLog::kNoParent;
  Clock::time_point call_{};
  Clock::time_point begin_{};
  Clock::time_point last_{};
  bool system_seen_ = false;
  u64 executions_ = 0;
  u64 user_phases_ = 0;
  u64 lost_ = 0;
};

}  // namespace perfbench
