#include "probes.hpp"

#include <algorithm>

namespace perfbench {

using rips::i64;
using rips::sched::ScheduleResult;

ProbedScheduler::ProbedScheduler(rips::sched::ParallelScheduler& inner,
                                 ProbeMode mode, ScheduleStats& stats,
                                 SpanLog* spans)
    : inner_(inner), mode_(mode), stats_(stats), spans_(spans) {}

ProbedScheduler::ProbedScheduler(
    std::unique_ptr<rips::sched::ParallelScheduler> owned, ProbeMode mode,
    ScheduleStats& stats, SpanLog* spans)
    : owned_(std::move(owned)),
      inner_(*owned_),
      mode_(mode),
      stats_(stats),
      spans_(spans) {}

const ScheduleResult& ProbedScheduler::schedule(const std::vector<i64>& load) {
  if (mode_ == ProbeMode::kForward) return inner_.schedule(load);
  const Clock::time_point t0 = Clock::now();
  const ScheduleResult& r = inner_.schedule(load);
  const Clock::time_point t1 = Clock::now();
  if (mode_ == ProbeMode::kTime && spans_ != nullptr) {
    stats_.open_spans.push_back(spans_->add("schedule", t0, t1, SpanLog::kNoParent));
  }
  stats_.calls += 1;
  stats_.transfers += r.transfers.size();
  stats_.comm_steps += static_cast<u64>(r.comm_steps);
  stats_.node_slots += load.size();
  stats_.active_nodes += static_cast<u64>(
      std::count_if(load.begin(), load.end(), [](i64 l) { return l != 0; }));
  if (mode_ == ProbeMode::kCheck) check(load, r);
  return r;
}

void ProbedScheduler::check(const std::vector<i64>& load,
                            const ScheduleResult& r) {
  const auto failure = [&]() -> std::string {
    const auto n = static_cast<size_t>(inner_.topology().size());
    if (load.size() != n || r.new_load.size() != n) {
      return "load vector size differs from the machine size";
    }
    replay_ = load;
    for (const rips::sched::Transfer& t : r.transfers) {
      if (t.from < 0 || t.to < 0 || static_cast<size_t>(t.from) >= n ||
          static_cast<size_t>(t.to) >= n || t.count <= 0 ||
          inner_.topology().distance(t.from, t.to) != 1) {
        return "transfer is not a positive move across one link";
      }
      replay_[static_cast<size_t>(t.from)] -= t.count;
      replay_[static_cast<size_t>(t.to)] += t.count;
    }
    i64 before = 0;
    i64 after = 0;
    for (size_t i = 0; i < n; ++i) {
      before += load[i];
      after += r.new_load[i];
    }
    if (before != after) return "total load not conserved";
    const auto [lo, hi] = std::minmax_element(r.new_load.begin(), r.new_load.end());
    if (n > 0 && *hi - *lo > 1) return "Theorem 1 violated: max - min load > 1";
    if (replay_ != r.new_load) return "replaying the transfers does not yield new_load";
    return {};
  }();
  if (failure.empty()) return;
  if (stats_.check_failures == 0) {
    stats_.first_failure = failure + " (schedule call " + std::to_string(stats_.calls) + ")";
  }
  stats_.check_failures += 1;
}

rips::sched::SchedulerFactory probed_factory(ProbeMode mode,
                                             ScheduleStats& stats,
                                             SpanLog* spans) {
  rips::sched::SchedulerFactory base = rips::sched::any_size_mesh_factory();
  return [base, mode, &stats, spans](rips::i32 n)
             -> std::unique_ptr<rips::sched::ParallelScheduler> {
    return std::make_unique<ProbedScheduler>(base(n), mode, stats, spans);
  };
}

void PhaseClock::start(Clock::time_point run_call, i64 parent) {
  call_ = run_call;
  begin_ = last_ = run_call;
  parent_ = parent;
  system_seen_ = false;
  executions_ = 0;
  user_phases_ = 0;
  lost_ = 0;
}

void PhaseClock::on_run_begin(const rips::obs::RunStart& /*run*/) {
  begin_ = last_ = Clock::now();
  if (spans_ != nullptr) spans_->add("run_init", call_, begin_, parent_);
}

void PhaseClock::on_phase(const rips::obs::PhaseSample& sample) {
  if (sample.job != -1) return;  // per-job slices repeat the phase's total
  using rips::obs::PhaseKind;
  if (sample.kind == PhaseKind::kSegment) {
    executions_ += sample.tasks;
    return;
  }
  const Clock::time_point now = Clock::now();
  if (sample.kind == PhaseKind::kSystem) {
    system_seen_ = true;
    if (spans_ != nullptr) {
      const i64 id = spans_->add("system_phase", last_, now, parent_);
      for (i64 s : sched_->open_spans) spans_->set_parent(s, id);
    }
    sched_->open_spans.clear();
  } else {
    executions_ += sample.tasks;
    user_phases_ += 1;
    if (spans_ != nullptr) spans_->add("user_phase", last_, now, parent_);
  }
  last_ = now;
}

void PhaseClock::on_event(const rips::obs::TelemetryEvent& event) {
  if (event.kind == rips::obs::TelemetryEvent::Kind::kCrash) {
    lost_ += static_cast<u64>(event.arg);
  }
}

void PhaseClock::finish(Clock::time_point returned) {
  if (spans_ != nullptr && system_seen_) {
    spans_->add("finalize", last_, returned, parent_);
  }
}

}  // namespace perfbench
