#include "rips/rips_engine.hpp"

#include <algorithm>
#include <limits>

#include "exec/task_source.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace rips::core {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max() / 4;

// Fixed histogram buckets (powers of two): coarse enough to stay O(16)
// per observation, fine enough to separate "balanced" from "skewed".
std::vector<i64> pow2_bounds(i64 max_bound) {
  std::vector<i64> b{0};
  for (i64 v = 1; v <= max_bound; v *= 2) b.push_back(v);
  return b;
}
}  // namespace

RipsEngine::RipsEngine(sched::ParallelScheduler& scheduler,
                       const sim::CostModel& cost, RipsConfig config)
    : scheduler_(scheduler),
      cost_(cost),
      config_(config),
      c_tasks_executed_(&registry_.counter("tasks.executed")),
      c_tasks_nonlocal_(&registry_.counter("tasks.nonlocal")),
      c_tasks_migrated_(&registry_.counter("tasks.migrated")),
      c_msg_sent_(&registry_.counter("msg.sent")),
      c_phase_system_(&registry_.counter("phase.system")),
      c_phase_user_(&registry_.counter("phase.user")),
      c_crashes_(&registry_.counter("fault.crashes")),
      c_recovery_phases_(&registry_.counter("fault.recovery_phases")),
      c_reinjected_(&registry_.counter("fault.tasks_reinjected")),
      c_reexecuted_(&registry_.counter("fault.tasks_reexecuted")),
      c_dropped_msgs_(&registry_.counter("fault.dropped_messages")),
      c_msg_retries_(&registry_.counter("fault.message_retries")),
      c_lost_work_ns_(&registry_.counter("fault.lost_work_ns")),
      c_recovery_time_ns_(&registry_.counter("fault.recovery_time_ns")),
      g_rts_total_(&registry_.gauge("phase.rts_total")),
      g_live_nodes_(&registry_.gauge("machine.live_nodes")),
      h_phase_imbalance_(
          &registry_.histogram("phase.load_imbalance", pow2_bounds(1 << 20))),
      h_phase_moved_(
          &registry_.histogram("phase.tasks_moved", pow2_bounds(1 << 20))),
      h_phase_dur_us_(
          &registry_.histogram("phase.duration_us", pow2_bounds(1 << 24))),
      h_uphase_tasks_(
          &registry_.histogram("user_phase.tasks", pow2_bounds(1 << 24))),
      factory_(sched::any_size_mesh_factory()) {}

NodeId RipsEngine::nearest_live(NodeId phys) const {
  RIPS_CHECK(!live_.empty());
  NodeId best = live_.front();
  i32 best_d = std::numeric_limits<i32>::max();
  for (NodeId cand : live_) {
    const i32 d = base_topology().distance(phys, cand);
    if (d < best_d) {
      best_d = d;
      best = cand;  // live_ is sorted, so ties pick the smallest id
    }
  }
  return best;
}

i32 RipsEngine::machine_distance(NodeId phys_a, NodeId phys_b) const {
  if (live_view_ != nullptr) {
    return live_view_->distance(live_view_->rank_of(phys_a),
                                live_view_->rank_of(phys_b));
  }
  return base_topology().distance(phys_a, phys_b);
}

i32 RipsEngine::machine_diameter() const {
  return live_view_ != nullptr ? live_view_->diameter()
                               : base_topology().diameter();
}

coll::Collectives& RipsEngine::detection_collectives() {
  if (live_view_ != nullptr) return *live_coll_;
  if (base_coll_ == nullptr) {
    base_coll_ = std::make_unique<coll::Collectives>(base_topology());
  }
  return *base_coll_;
}

void RipsEngine::release_segment_roots(u32 segment) {
  const auto& roots = trace_->roots(segment);
  if (segment == 0) {
    // Sequential root expansion: everything materializes on node 0.
    for (TaskId r : roots) {
      origin_[static_cast<size_t>(r)] = 0;
      nodes_[0].rts.push_back(r);
      nodes_[0].ovh_ns += cost_.spawn_ns;
    }
  } else {
    // Data affinity: a segment root lives where the corresponding root of
    // the previous segment executed. A dead home falls back to its nearest
    // survivor (the descriptor is replicated; only the placement hint dies
    // with the node).
    const auto& prev = trace_->roots(segment - 1);
    for (size_t i = 0; i < roots.size(); ++i) {
      NodeId home = live_.front();
      if (!prev.empty()) {
        home = exec_node_[static_cast<size_t>(prev[i % prev.size()])];
        if (home == kInvalidNode) {
          home = live_.front();
        } else if (!alive_[static_cast<size_t>(home)]) {
          home = nearest_live(home);
        }
      }
      origin_[static_cast<size_t>(roots[i])] = home;
      nodes_[static_cast<size_t>(home)].rts.push_back(roots[i]);
      nodes_[static_cast<size_t>(home)].ovh_ns += cost_.spawn_ns;
    }
  }
  released_segments_ = segment + 1;
}

SimTime RipsEngine::recover(SimTime t) {
  SimTime max_death = 0;
  for (const PendingDeath& d : dead_pending_) {
    alive_[static_cast<size_t>(d.node)] = 0;
    dead_at_[static_cast<size_t>(d.node)] = d.at;
    max_death = std::max(max_death, d.at);
    c_crashes_->add();
    c_reexecuted_->add(d.lost_execs);
    c_lost_work_ns_->add(static_cast<u64>(d.lost_work_ns));
    nodes_[static_cast<size_t>(d.node)].rte.clear();
    nodes_[static_cast<size_t>(d.node)].rts.clear();
  }

  // Rebuild the degraded machine first: adopters are chosen among the
  // survivors only, and the scheduler must match the new node count.
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [&](NodeId p) {
                               return alive_[static_cast<size_t>(p)] == 0;
                             }),
              live_.end());
  RIPS_CHECK_MSG(!live_.empty(), "every node crashed; nothing can recover");
  live_view_ = std::make_unique<topo::LiveView>(base_topology(), live_);
  live_coll_ = std::make_unique<coll::Collectives>(*live_view_);
  degraded_sched_ = factory_(static_cast<i32>(live_.size()));
  RIPS_CHECK_MSG(degraded_sched_ != nullptr &&
                     degraded_sched_->topology().size() ==
                         static_cast<i32>(live_.size()),
                 "scheduler factory produced the wrong machine size");

  // Re-inject every dead node's checkpoint — its RTE assignment at the last
  // recovery line — onto the survivor nearest to it in the base network
  // (that node holds the replicated descriptors at minimal distance). The
  // checkpoint CSR was built at the end of the previous system phase, when
  // the node was still live; the next rebuild gives dead nodes empty
  // spans, so a span is never re-injected twice.
  u64 reinjected = 0;
  for (const PendingDeath& d : dead_pending_) {
    const auto p = static_cast<size_t>(d.node);
    const size_t begin = ckpt_offsets_[p];
    const size_t end = ckpt_offsets_[p + 1];
    if (end > begin) {
      const NodeId adopter = nearest_live(d.node);
      auto& dst = nodes_[static_cast<size_t>(adopter)];
      dst.rts.insert(dst.rts.end(), ckpt_tasks_.begin() + begin,
                     ckpt_tasks_.begin() + end);
      dst.ovh_ns += cost_.recv_time(static_cast<i64>(end - begin));
      c_reinjected_->add(end - begin);
      reinjected += end - begin;
    }
  }
  dead_pending_.clear();

  // Membership agreement: survivors all-reduce the suspect set over the
  // degraded network before rescheduling.
  const SimTime extra = 2 *
                        static_cast<SimTime>(live_view_->diameter()) *
                        cost_.info_step_ns;
  c_recovery_phases_->add();
  c_recovery_time_ns_->add(static_cast<u64>(extra));
  g_live_nodes_->set(static_cast<i64>(live_.size()));
  if (timeline_ != nullptr) {
    timeline_->record({sim::TimelineEvent::Kind::kRecovery, kInvalidNode, t,
                       t + extra, kInvalidTask});
  }
  obs::span(obs_.trace, kInvalidNode, "fault", "recovery", t, t + extra,
            "reinjected", static_cast<i64>(reinjected));
  if (obs_.bus != nullptr) {
    obs::TelemetryEvent ev;
    ev.kind = obs::TelemetryEvent::Kind::kRecovery;
    ev.t = t;
    ev.phase = static_cast<u64>(phases_.size());
    ev.arg = static_cast<i64>(reinjected);
    ev.detail = "recovery line rebuilt";
    obs_.bus->publish(ev);
  }
  return extra;
}

SimTime RipsEngine::system_phase(SimTime t) {
  SimTime recovery_extra = 0;
  if (!dead_pending_.empty()) recovery_extra = recover(t);
  const i32 n = static_cast<i32>(live_.size());

  // Collect: leftover RTE tasks are moved back to RTS and rescheduled
  // together with the newly generated ones (Section 2).
  u64 total = 0;
  for (NodeId phys : live_) {
    const NodeRt& node = nodes_[static_cast<size_t>(phys)];
    total += node.rts.size() + node.rte.size();
  }
  if (total == 0 && released_segments_ < trace_->num_segments()) {
    // Segment barrier: this same system phase schedules the next segment.
    release_segment_roots(released_segments_);
    for (NodeId phys : live_) {
      total += nodes_[static_cast<size_t>(phys)].rts.size();
    }
  }

  // One pass per rank splits its RTS, then its leftover RTE, by origin
  // into the flat rank-ordered array before_tasks_: the rank's own tasks
  // fill its span from the front, foreign tasks from the back (so read
  // backwards they are in collected order). That array is the replay's
  // task storage and, unchanged, the monitors' begin-of-phase snapshot.
  before_offsets_.resize(static_cast<size_t>(n) + 1);
  before_tasks_.resize(total);
  runs_.clear();
  ranks_.assign(static_cast<size_t>(n), RankRuns{});
  size_t offset = 0;
  for (i32 r = 0; r < n; ++r) {
    const NodeId phys = live_[static_cast<size_t>(r)];
    NodeRt& node = nodes_[static_cast<size_t>(phys)];
    before_offsets_[static_cast<size_t>(r)] = offset;
    const size_t size = node.rts.size() + node.rte.size();
    size_t front = offset;
    size_t back = offset + size;
    RankRuns& rank = ranks_[static_cast<size_t>(r)];
    const auto collect = [&](TaskId task) {
      const NodeId origin = origin_[static_cast<size_t>(task)];
      if (origin == phys) {
        before_tasks_[front++] = task;
        return;
      }
      before_tasks_[--back] = task;
      if (rank.foreign.tail != kNoRun &&
          runs_[static_cast<size_t>(rank.foreign.tail)].origin == origin) {
        runs_[static_cast<size_t>(rank.foreign.tail)].begin = back;
        rank.foreign.size += 1;
      } else {
        push_run(rank.foreign,
                 {back, back + 1, kNoRun, kNoRun, origin, 0, true});
      }
    };
    for (TaskId task : node.rts) collect(task);
    for (TaskId task : node.rte) collect(task);
    node.rts.clear();
    node.rte.clear();
    if (front > offset) {
      push_run(rank.local, {offset, front, kNoRun, kNoRun, phys, 0, false});
    }
    offset += size;
  }
  before_offsets_[static_cast<size_t>(n)] = offset;

  // Counts (the paper's choice) or work totals (weighted mode: what
  // perfect grain estimation would let the scheduler balance). Loads are
  // indexed by logical rank; rank r is physical node live_[r]. Weighted
  // loads are a flat gather over the per-task weight array.
  load_.resize(static_cast<size_t>(n));
  for (i32 r = 0; r < n; ++r) {
    const size_t begin = before_offsets_[static_cast<size_t>(r)];
    const size_t size = before_offsets_[static_cast<size_t>(r) + 1] - begin;
    load_[static_cast<size_t>(r)] =
        config_.weighted
            ? simd::gather_sum_i64(task_weight_.data(),
                                   before_tasks_.data() + begin, size)
            : static_cast<i64>(size);
  }
  // The plan is borrowed from the scheduler's pooled result; it stays valid
  // until the next schedule() call, which only happens next phase.
  const sched::ScheduleResult& plan = active_scheduler().schedule(load_);
  const u64 phase_idx = static_cast<u64>(phases_.size());
  const bool monitoring = obs_.monitor != nullptr && !config_.weighted;

  // Replay the transfer plan on runs of task ids. Nodes forward tasks that
  // are already non-local before giving up their own (locality), and
  // every transfer takes from the tail of those lists. Moving a whole run
  // reverses its order, which a run records instead of copying tasks.
  migration_.assign(static_cast<size_t>(n), 0);
  u64 moved = 0;
  // Per-transfer payloads, kept only while tracing so the send/recv
  // instants below can carry matching correlation ids.
  traced_.clear();
  for (const sched::Transfer& tr : plan.transfers) {
    RankRuns& src = ranks_[static_cast<size_t>(tr.from)];
    RankRuns& dst = ranks_[static_cast<size_t>(tr.to)];
    const NodeId to_phys = live_[static_cast<size_t>(tr.to)];
    // Count mode: move exactly tr.count tasks, foreign tail first, then
    // local tail. Weighted mode: tr.count is an amount of WORK; move tasks
    // one at a time until the planned amount is matched as closely as task
    // granularity allows (stop early rather than overshoot by more than
    // the final task's better half).
    i64 sent = 0;  // tasks moved for this transfer
    if (!config_.weighted) {
      RIPS_CHECK_MSG(src.local.size + src.foreign.size >= tr.count,
                     "scheduler transfer exceeds node holdings");
      const i64 from_foreign = std::min(tr.count, src.foreign.size);
      move_tail(src.foreign, from_foreign, dst, to_phys);
      move_tail(src.local, tr.count - from_foreign, dst, to_phys);
      sent = tr.count;
    } else {
      i64 sent_work = 0;
      while (src.local.size + src.foreign.size > 0) {
        RunList& from = src.foreign.size > 0 ? src.foreign : src.local;
        const Run& tail = runs_[static_cast<size_t>(from.tail)];
        const TaskId task =
            before_tasks_[tail.reversed ? tail.begin : tail.end - 1];
        const i64 w = task_weight_[static_cast<size_t>(task)];
        const i64 undershoot = tr.count - sent_work;
        if (undershoot <= 0) break;
        if (sent > 0 && sent_work + w - tr.count > undershoot) break;
        sent_work += w;
        move_tail(from, 1, dst, to_phys);
        ++sent;
      }
    }
    moved += static_cast<u64>(sent);
    migration_[static_cast<size_t>(tr.from)] += cost_.send_time(sent);
    migration_[static_cast<size_t>(tr.to)] += cost_.recv_time(sent);
    c_msg_sent_->add();
    if (obs_.trace != nullptr && sent > 0) {
      traced_.push_back({live_[static_cast<size_t>(tr.from)],
                         live_[static_cast<size_t>(tr.to)], sent});
    }
  }
  c_tasks_migrated_->add(moved);

  // Scheduled tasks enter the RTE queues (own tasks first, then received),
  // and every task is charged once per transfer it made.
  for (i32 r = 0; r < n; ++r) {
    auto& rte = nodes_[static_cast<size_t>(live_[r])].rte;
    const RankRuns& rank = ranks_[static_cast<size_t>(r)];
    for (const RunList* list : {&rank.local, &rank.foreign}) {
      for (i32 i = list->head; i != kNoRun;) {
        const Run& run = runs_[static_cast<size_t>(i)];
        const TaskId* first = before_tasks_.data() + run.begin;
        const size_t len = run.end - run.begin;
        if (run.reversed) {
          rte.append_reversed(first, len);
        } else {
          rte.append(first, len);
        }
        if (job_accounting_ && run.hops > 0) {
          for (size_t k = 0; k < len; ++k) {
            job_migrated_[static_cast<size_t>((*job_of_)[first[k]])] +=
                static_cast<u64>(run.hops);
          }
        }
        i = run.next;
      }
    }
  }

  // Cost: lock-step scheduling rounds (cheap scalar-only information steps
  // plus full task-payload steps — the paper's "each communication step to
  // migrate tasks takes about 1 ms") plus the slowest node's migration CPU
  // time; the phase is synchronous, everyone leaves it together.
  const SimTime max_migration =
      simd::minmax_i64(migration_.data(), migration_.size()).max;
  const SimTime step_time = plan.info_steps * cost_.info_step_ns +
                            plan.transfer_steps * cost_.step_ns;
  const SimTime duration = step_time + max_migration + recovery_extra;
  for (i32 r = 0; r < n; ++r) {
    nodes_[static_cast<size_t>(live_[r])].ovh_ns +=
        step_time + migration_[static_cast<size_t>(r)];
  }

  // Recovery line: the post-scheduling RTE assignment is exactly what a
  // survivor can replay for a node that dies before the next system phase.
  // Rebuilt in place over ALL physical nodes — dead ones own empty spans,
  // which also retires any span recover() just re-injected.
  if (injector_.has_value()) {
    const size_t n_phys = nodes_.size();
    ckpt_offsets_.resize(n_phys + 1);
    ckpt_tasks_.clear();
    ckpt_offsets_[0] = 0;
    for (size_t p = 0; p < n_phys; ++p) {
      if (alive_[p]) {
        const auto& rte = nodes_[p].rte;
        ckpt_tasks_.insert(ckpt_tasks_.end(), rte.begin(), rte.end());
      }
      ckpt_offsets_[p + 1] = ckpt_tasks_.size();
    }
  }

  phases_.push_back({total, moved, plan.comm_steps, duration});
  c_phase_system_->add();
  g_rts_total_->set(static_cast<i64>(total));
  const i64 imbalance = sched::load_imbalance(load_);
  h_phase_imbalance_->observe(imbalance);
  h_phase_moved_->observe(static_cast<i64>(moved));
  h_phase_dur_us_->observe(duration / 1000);
  if (obs_.bus != nullptr) {
    obs::PhaseSample sample;
    sample.kind = obs::PhaseKind::kSystem;
    sample.phase = phase_idx;
    sample.t0 = t;
    sample.t1 = t + duration;
    sample.tasks = total;
    sample.moved = moved;
    sample.imbalance = imbalance;
    sample.comm_steps = plan.comm_steps;
    sample.rts_total = static_cast<i64>(total);
    sample.live_nodes = n;
    sample.executed_total = executed_total_;
    obs_.bus->publish(sample);
  }
  if (phase_snapshots_) {
    registry_.snapshot("phase=" + std::to_string(phase_idx));
  }
  if (timeline_ != nullptr) {
    timeline_->record({sim::TimelineEvent::Kind::kSystemPhase, kInvalidNode,
                       t, t + duration, kInvalidTask});
  }
  if (obs_.trace != nullptr) {
    obs_.trace->span(kInvalidNode, "phase", "system_phase", t, t + duration,
                     "scheduled", static_cast<i64>(total));
    // Children of the system-phase span: the recovery span (if any) was
    // emitted by recover() at [t, t+recovery_extra]; scheduling and
    // migration follow it.
    const SimTime sched_t0 = t + recovery_extra;
    obs_.trace->span(kInvalidNode, "phase", "schedule", sched_t0,
                     sched_t0 + step_time, "comm_steps", plan.comm_steps);
    if (max_migration > 0) {
      obs_.trace->span(kInvalidNode, "phase", "migrate",
                       sched_t0 + step_time,
                       sched_t0 + step_time + max_migration, "moved",
                       static_cast<i64>(moved));
    }
    // One send/recv instant pair per non-empty transfer, sharing a "corr"
    // id so trace analysis can rebuild the migration edges. The phase is
    // synchronous: sends fire when scheduling ends, receives when the
    // slowest migrator finishes.
    const SimTime mig_t0 = sched_t0 + step_time;
    for (const TracedTransfer& tt : traced_) {
      const i64 corr = mig_corr_++;
      obs_.trace->instant(tt.from, "msg", "send", mig_t0, "tasks", tt.sent,
                          "corr", corr);
      obs_.trace->instant(tt.to, "msg", "recv", mig_t0 + max_migration,
                          "tasks", tt.sent, "corr", corr);
    }
  }
  if (monitoring) {
    const size_t violations_before = obs_.monitor->violations().size();
    check_phase_invariants(phase_idx, load_, plan, static_cast<i64>(total));
    const size_t violations_after = obs_.monitor->violations().size();
    if (obs_.bus != nullptr && violations_after > violations_before) {
      const obs::InvariantMonitor::Violation& v =
          obs_.monitor->violations().back();
      obs::TelemetryEvent ev;
      ev.kind = obs::TelemetryEvent::Kind::kMonitorViolation;
      ev.t = t + duration;
      ev.node = v.node;
      ev.phase = phase_idx;
      ev.arg = static_cast<i64>(violations_after - violations_before);
      // TelemetryEvent keeps static strings only — map the violation's
      // monitor name back to its literal.
      ev.detail = v.monitor == "theorem1"   ? "theorem1"
                  : v.monitor == "theorem2" ? "theorem2"
                                            : "conservation";
      obs_.bus->publish(ev);
    }
  }
  if (phase_probe_ != nullptr) phase_probe_(probe_ctx_, phase_idx);
  return t + duration;
}

void RipsEngine::push_run(RunList& list, const Run& run) {
  runs_.push_back(run);
  link_run(list, static_cast<i32>(runs_.size()) - 1);
}

void RipsEngine::link_run(RunList& list, i32 idx) {
  Run& run = runs_[static_cast<size_t>(idx)];
  run.prev = list.tail;
  run.next = kNoRun;
  if (list.tail != kNoRun) {
    runs_[static_cast<size_t>(list.tail)].next = idx;
  } else {
    list.head = idx;
  }
  list.tail = idx;
  list.size += static_cast<i64>(run.end - run.begin);
}

void RipsEngine::move_tail(RunList& from, i64 take, RankRuns& dst,
                           NodeId to_phys) {
  while (take > 0) {
    i32 idx = from.tail;
    Run& run = runs_[static_cast<size_t>(idx)];
    const auto len = static_cast<i64>(run.end - run.begin);
    if (len > take) {
      // Split: the run's last `take` tasks in list order leave as a new
      // run, the rest stays in place.
      Run part = run;
      if (run.reversed) {
        part.end = run.begin + static_cast<size_t>(take);
        run.begin = part.end;
      } else {
        part.begin = run.end - static_cast<size_t>(take);
        run.end = part.begin;
      }
      from.size -= take;
      take = 0;
      runs_.push_back(part);
      idx = static_cast<i32>(runs_.size()) - 1;
    } else {
      from.tail = run.prev;
      if (from.tail != kNoRun) {
        runs_[static_cast<size_t>(from.tail)].next = kNoRun;
      } else {
        from.head = kNoRun;
      }
      from.size -= len;
      take -= len;
    }
    Run& moving = runs_[static_cast<size_t>(idx)];
    moving.reversed = !moving.reversed;
    moving.hops += 1;
    link_run(moving.origin == to_phys ? dst.local : dst.foreign, idx);
  }
}

void RipsEngine::check_phase_invariants(u64 phase,
                                        const std::vector<i64>& load,
                                        const sched::ScheduleResult& plan,
                                        i64 total) {
  obs::InvariantMonitor* mon = obs_.monitor;
  // Theorem 1: post-scheduling loads pairwise within 1, total conserved.
  mon->check_balance(phase, plan.new_load, total);

  // Map every task to the rank it started the phase on, then find where the
  // replay put it. A task that vanished, appeared from nowhere, or got
  // duplicated is a conservation violation; the relocation count feeds the
  // Theorem-2 comparison against the Lemma-1 lower bound. The mapping is a
  // flat rank-per-task array indexed by id (grown once to trace size, all
  // touched entries restored before returning), so the scan is two linear
  // passes over the CSR snapshot — no hashing, no steady-state allocation.
  constexpr i32 kUnseenRank = -2;  // task absent from the begin snapshot
  constexpr i32 kConsumedRank = -1;
  const i32 n = static_cast<i32>(live_.size());
  if (start_rank_.size() < trace_->size()) {
    start_rank_.resize(trace_->size(), kUnseenRank);
  }
  bool conserved = true;
  for (i32 r = 0; r < n; ++r) {
    const size_t begin = before_offsets_[static_cast<size_t>(r)];
    const size_t end = before_offsets_[static_cast<size_t>(r) + 1];
    for (size_t i = begin; i < end; ++i) {
      i32& slot = start_rank_[static_cast<size_t>(before_tasks_[i])];
      if (slot != kUnseenRank) conserved = false;  // duplicated at begin
      else slot = r;
    }
  }
  i64 relocated = 0;
  i64 seen = 0;
  for (i32 r = 0; r < n; ++r) {
    for (TaskId task : nodes_[static_cast<size_t>(live_[r])].rte) {
      ++seen;
      i32& slot = start_rank_[static_cast<size_t>(task)];
      if (slot < 0) {
        conserved = false;  // unknown task, or the same task twice
        continue;
      }
      if (slot != r) ++relocated;
      slot = kConsumedRank;
    }
  }
  conserved = conserved && seen == total;
  for (TaskId task : before_tasks_) {
    start_rank_[static_cast<size_t>(task)] = kUnseenRank;
  }
  mon->check_conservation(phase, conserved, kInvalidNode,
                          "system-phase replay must queue every collected "
                          "task exactly once");

  // Theorem 2 against the schedule actually produced (Lemma 1 with the
  // plan's new_load as the target — exact for every scheduler, not only
  // for ones hitting the paper's quota).
  const i64 minimum =
      simd::sum_pos_diff_i64(plan.new_load.data(), load.data(), load.size());
  mon->check_locality(phase, relocated, minimum);
}

SimTime RipsEngine::simulate_user_phase(NodeId node, SimTime start_t,
                                        SimTime stop_t, PhaseMode mode,
                                        u64* lost_execs,
                                        SimTime* lost_work_ns) {
  NodeRt& n = nodes_[static_cast<size_t>(node)];
  const bool apply = mode == PhaseMode::kCommit;
  sim::TaskQueue* queue;
  if (apply) {
    queue = &n.rte;
  } else {
    scratch_rte_.assign(n.rte);
    queue = &scratch_rte_;
  }
  const bool lazy = config_.local == LocalPolicy::kLazy;

  SimTime now = start_t;
  while (!queue->empty() && now < stop_t) {
    const TaskId task =
        config_.lifo_execution ? queue->pop_back() : queue->pop_front();
    SimTime work = work_ns_[static_cast<size_t>(task)];
    if (injector_.has_value()) work = injector_->scaled_work(node, now, work);
    now += work;
    if (apply) {
      n.busy_ns += work;
      exec_node_[static_cast<size_t>(task)] = node;
      executed_total_ += 1;
      c_tasks_executed_->add();
      if (job_accounting_) {
        const auto j =
            static_cast<size_t>((*job_of_)[static_cast<size_t>(task)]);
        job_tasks_[j] += 1;
        job_work_ns_[j] += work;
        if (now > job_done_ns_[j]) job_done_ns_[j] = now;
        if (job_counting_) job_exec_[j] += 1;
      }
      if (timeline_ != nullptr) {
        timeline_->record({sim::TimelineEvent::Kind::kTask, node, now - work,
                           now, task});
      }
      obs::span(obs_.trace, node, "task", "task", now - work, now, "id",
                static_cast<i64>(task));
    } else if (mode == PhaseMode::kDoomed) {
      // The node finishes this task but dies before the next recovery
      // line: the execution is lost and will be redone by a survivor.
      if (lost_execs != nullptr) *lost_execs += 1;
      if (lost_work_ns != nullptr) *lost_work_ns += work;
    }
    const u32 kids = trace_->num_children(task);
    const TaskId* child = trace_->children_begin(task);
    for (u32 c = 0; c < kids; ++c) {
      now += cost_.spawn_ns;
      if (apply) {
        n.ovh_ns += cost_.spawn_ns;
        origin_[static_cast<size_t>(child[c])] = node;
      }
      if (lazy) {
        queue->push_back(child[c]);
      } else if (apply) {
        n.rts.push_back(child[c]);
      }
    }
  }
  return now;
}

SimTime RipsEngine::user_phase(SimTime t) {
  const i32 n = static_cast<i32>(live_.size());
  const u64 executed_before = executed_total_;
  const SimTime user_start = t;
  const u64 op_base = coll_op_counter_;
  coll_op_counter_ += 2;  // one id for notify delays, one for detection
  i64 phase_retries = 0;  // detection-collective retransmissions, for telemetry

  job_counting_ = obs_.bus != nullptr && job_accounting_;
  if (job_counting_) job_exec_.assign(static_cast<size_t>(num_jobs_), 0);

  // Measuring pass: when would each node drain its RTE, undisturbed? With
  // no fault injector the simulated instruction stream is position-free, so
  // the drain time is the exact sum of precomputed per-task drain costs —
  // O(queue) instead of a full O(subtree) dry-run simulation. Fault runs
  // (slowdowns make work position-dependent) keep the full pass.
  std::vector<SimTime>& drain = drain_;
  drain.assign(nodes_.size(), kNever);
  if (fast_measure_) {
    // Gather-sum kernel over the queue's contiguous id span: the whole
    // measuring pass is one linear read of drain_cost_ per node.
    for (NodeId phys : live_) {
      const sim::TaskQueue& rte = nodes_[static_cast<size_t>(phys)].rte;
      drain[static_cast<size_t>(phys)] =
          t + simd::gather_sum_i64(drain_cost_.data(), rte.begin(),
                                   rte.size());
    }
  } else {
    for (NodeId phys : live_) {
      drain[static_cast<size_t>(phys)] =
          simulate_user_phase(phys, t, kNever, PhaseMode::kMeasure);
    }
  }

  // Effective crash times: a crash timed before this phase (inside the
  // system phase) fires at the phase start; crashes are honored at
  // user-phase granularity.
  std::vector<SimTime>& crash_eff = crash_eff_;
  crash_eff.assign(nodes_.size(), kNever);
  bool crash_candidates = false;
  if (injector_.has_value()) {
    for (NodeId phys : live_) {
      if (crash_time_[static_cast<size_t>(phys)] != kNever) {
        crash_eff[static_cast<size_t>(phys)] =
            std::max(t, crash_time_[static_cast<size_t>(phys)]);
        crash_candidates = true;
      }
    }
  }

  // Global condition time over the nodes that stay alive; crash admission
  // below removes the doomed and recomputes until a fixpoint.
  std::vector<char>& doomed = doomed_;
  doomed.assign(nodes_.size(), 0);
  i32 doomed_count = 0;
  SimTime t_cond = t;
  NodeId initiator = live_.front();
  const auto recompute_cond = [&]() {
    if (config_.global == GlobalPolicy::kAny) {
      // Any processor whose RTE drains initiates — including processors
      // that received no work at all (with fewer tasks than processors the
      // idle ones trigger an immediate incremental rebalance; every busy
      // processor still completes its current task, so each phase makes
      // progress).
      t_cond = kNever;
      initiator = live_.front();
      for (NodeId phys : live_) {
        if (doomed[static_cast<size_t>(phys)]) continue;
        if (drain[static_cast<size_t>(phys)] < t_cond) {
          t_cond = drain[static_cast<size_t>(phys)];
          initiator = phys;
        }
      }
      RIPS_CHECK(t_cond != kNever);
    } else {
      t_cond = t;
      for (NodeId phys : live_) {
        if (doomed[static_cast<size_t>(phys)]) continue;
        t_cond = std::max(t_cond, drain[static_cast<size_t>(phys)]);
      }
    }
  };
  recompute_cond();
  if (crash_candidates) {
    // A candidate is admitted (dies inside this phase) when its crash time
    // precedes the condition computed over the remaining survivors. The
    // machine always keeps one survivor: a last-node crash never fires.
    while (n - doomed_count > 1) {
      NodeId pick = kInvalidNode;
      for (NodeId phys : live_) {
        const auto p = static_cast<size_t>(phys);
        if (doomed[p] || crash_eff[p] > t_cond) continue;
        if (pick == kInvalidNode ||
            crash_eff[p] < crash_eff[static_cast<size_t>(pick)]) {
          pick = phys;
        }
      }
      if (pick == kInvalidNode) break;
      doomed[static_cast<size_t>(pick)] = 1;
      ++doomed_count;
      recompute_cond();
    }
  }

  // Detection: signal protocol or naive periodic reduction.
  SimTime t_detect = t_cond;
  SimTime periodic_penalty = 0;
  if (config_.detect == DetectMode::kPeriodic) {
    const SimTime interval = config_.periodic_interval_ns;
    RIPS_CHECK(interval > 0);
    const SimTime elapsed = t_cond - t;
    const SimTime checks = std::max<SimTime>(
        1, (elapsed + interval - 1) / interval);
    t_detect = t + checks * interval;
    // Every reduction interrupts every node briefly: the CPU cost is
    // overhead AND it stretches the phase by the same amount (the
    // computation pauses while the global reduction runs).
    periodic_penalty =
        checks * (cost_.send_overhead_ns + cost_.recv_overhead_ns);
    for (NodeId phys : live_) {
      nodes_[static_cast<size_t>(phys)].ovh_ns += periodic_penalty;
    }
  }

  // Commit pass with per-node stop times. Doomed nodes run until their
  // crash instead: everything they executed this phase dies with them.
  SimTime phase_end = t;
  SimTime max_death = 0;
  const auto commit_doomed = [&](NodeId phys) {
    const SimTime death = crash_eff[static_cast<size_t>(phys)];
    u64 lost = 0;
    SimTime lost_work = 0;
    simulate_user_phase(phys, t, death, PhaseMode::kDoomed, &lost, &lost_work);
    dead_pending_.push_back({phys, death, lost, lost_work});
    max_death = std::max(max_death, death);
    if (timeline_ != nullptr) {
      timeline_->record({sim::TimelineEvent::Kind::kFailure, phys, death,
                         death, kInvalidTask});
    }
    obs::instant(obs_.trace, phys, "fault", "crash", death, "lost_execs",
                 static_cast<i64>(lost));
    if (obs_.bus != nullptr) {
      obs::TelemetryEvent ev;
      ev.kind = obs::TelemetryEvent::Kind::kCrash;
      ev.t = death;
      ev.node = phys;
      ev.phase = static_cast<u64>(phases_.size());
      ev.arg = static_cast<i64>(lost);
      ev.detail = "fail-stop crash committed";
      obs_.bus->publish(ev);
    }
  };
  if (config_.global == GlobalPolicy::kAny) {
    for (NodeId phys : live_) {
      if (doomed[static_cast<size_t>(phys)]) {
        commit_doomed(phys);
        continue;
      }
      SimTime delay = cost_.send_overhead_ns + cost_.recv_overhead_ns +
                      cost_.network_time(machine_distance(initiator, phys));
      if (injector_.has_value()) {
        delay += injector_->message_delay(op_base, initiator, phys);
      }
      const SimTime stop = t_detect + (phys == initiator ? 0 : delay);
      const SimTime quiesce =
          simulate_user_phase(phys, t, stop, PhaseMode::kCommit);
      nodes_[static_cast<size_t>(phys)].ovh_ns +=
          cost_.send_overhead_ns + cost_.recv_overhead_ns;
      phase_end = std::max(phase_end, std::max(quiesce, stop));
    }
    phase_end += cost_.step_ns;  // quiescence confirmation
  } else {
    for (NodeId phys : live_) {
      if (doomed[static_cast<size_t>(phys)]) {
        commit_doomed(phys);
        continue;
      }
      const SimTime quiesce =
          simulate_user_phase(phys, t, kNever, PhaseMode::kCommit);
      nodes_[static_cast<size_t>(phys)].ovh_ns +=
          cost_.send_overhead_ns + cost_.recv_overhead_ns;
      phase_end = std::max(phase_end, quiesce);
    }
    // Ready signals climb the spanning tree, init returns.
    phase_end = std::max(phase_end, t_detect) +
                2 * cost_.network_time(machine_diameter());
  }
  phase_end += periodic_penalty;

  // Faulty detection collective: the ready/init signals carry the
  // heartbeat. Each lost message costs one timeout window plus one resend
  // step on the critical path; dead peers are suspected after the retry
  // budget instead of hanging the protocol.
  const bool message_faults =
      injector_.has_value() && injector_->has_message_faults();
  if ((doomed_count > 0 || message_faults) && n > 1) {
    coll::Collectives& coll = detection_collectives();
    coll.set_telemetry(obs_.bus, phase_end);
    coll::Ledger ledger;
    coll::FaultStats stats;
    const u64 coll_op = op_base + 1;
    const coll::MessageFault fault_fn = [&](NodeId from, NodeId to,
                                            i64 attempt) {
      const NodeId pf = live_view_ != nullptr ? live_view_->physical(from)
                                              : from;
      const NodeId pt = live_view_ != nullptr ? live_view_->physical(to) : to;
      if (doomed[static_cast<size_t>(pf)] || doomed[static_cast<size_t>(pt)]) {
        return true;  // a crashed endpoint never sends or acknowledges
      }
      if (!message_faults) return false;
      return injector_->drop_message(coll_op, pf, pt, attempt);
    };
    i32 base_steps = 0;
    i32 faulty_steps = 0;
    if (config_.global == GlobalPolicy::kAny) {
      const NodeId init_rank = live_view_ != nullptr
                                   ? live_view_->rank_of(initiator)
                                   : initiator;
      base_steps = coll.or_barrier_steps(init_rank);
      faulty_steps = coll.or_barrier_steps_faulty(
          init_rank, fault_fn, config_.fault_max_retries, ledger, stats);
    } else {
      base_steps = coll.ready_signal_steps();
      faulty_steps = coll.ready_signal_steps_faulty(
          fault_fn, config_.fault_max_retries, ledger, stats);
    }
    const SimTime extra =
        static_cast<SimTime>(faulty_steps - base_steps) * cost_.info_step_ns +
        static_cast<SimTime>(stats.timeouts) * config_.fault_timeout_ns;
    c_dropped_msgs_->add(static_cast<u64>(stats.dropped));
    c_msg_retries_->add(static_cast<u64>(stats.retries));
    phase_retries = stats.retries;
    if (doomed_count > 0) c_recovery_time_ns_->add(static_cast<u64>(extra));
    if (extra > 0 && obs_.trace != nullptr) {
      // The detection collective's retransmission burst: one span covering
      // the critical-path stretch, one instant per retried tree edge
      // (physical node ids — the retry log speaks in live ranks).
      obs_.trace->span(kInvalidNode, "coll", "collective_retry", phase_end,
                       phase_end + extra, "timeouts", stats.timeouts);
      for (const coll::RetryEvent& re : stats.retry_log) {
        const NodeId pf = live_view_ != nullptr ? live_view_->physical(re.from)
                                                : re.from;
        obs_.trace->instant(pf, "coll",
                            re.delivered ? "coll_retry" : "coll_suspect",
                            phase_end, "attempts", re.attempts);
      }
    }
    phase_end += extra;
  }
  if (doomed_count > 0) {
    // Survivors cannot close the phase before the heartbeat timeout of the
    // last death has expired.
    phase_end = std::max(phase_end, max_death + config_.fault_timeout_ns);
  }

  const u64 executed = executed_total_ - executed_before;
  user_phases_.push_back({user_start, t_cond, phase_end, executed});
  c_phase_user_->add();
  h_uphase_tasks_->observe(static_cast<i64>(executed));
  obs::span(obs_.trace, kInvalidNode, "phase", "user_phase", user_start,
            phase_end, "executed", static_cast<i64>(executed));
  if (obs_.bus != nullptr) {
    obs::PhaseSample sample;
    sample.kind = obs::PhaseKind::kUser;
    sample.phase = static_cast<u64>(user_phases_.size() - 1);
    sample.t0 = user_start;
    sample.t1 = phase_end;
    sample.tasks = executed;
    sample.retries = phase_retries;
    sample.live_nodes = n - doomed_count;
    // Drain estimate: how long the measuring pass predicted this phase's
    // computation would run before the global condition fired.
    sample.drain_ns = t_cond - user_start;
    sample.executed_total = executed_total_;
    obs_.bus->publish(sample);
    if (job_counting_) {
      // One extra sample per job: the per-tenant slice of this phase.
      for (i32 j = 0; j < num_jobs_; ++j) {
        obs::PhaseSample js = sample;
        js.job = j;
        js.tasks = job_exec_[static_cast<size_t>(j)];
        js.retries = 0;
        obs_.bus->publish(js);
      }
    }
  }
  return phase_end;
}

void RipsEngine::init_run_state(const apps::TaskTrace& trace) {
  trace_ = &trace;
  const i32 n = scheduler_.topology().size();
  nodes_.assign(static_cast<size_t>(n), NodeRt{});
  origin_.assign(trace.size(), kInvalidNode);
  exec_node_.assign(trace.size(), kInvalidNode);
  executed_total_ = 0;
  released_segments_ = 0;
  phases_.clear();
  user_phases_.clear();
  if (phases_.capacity() < 1024) phases_.reserve(1024);
  if (user_phases_.capacity() < 1024) user_phases_.reserve(1024);
  metrics_ = sim::RunMetrics{};
  metrics_.num_nodes = n;
  registry_.reset();
  g_live_nodes_->set(n);
  if (obs_.trace != nullptr) obs_.trace->clear();
  if (obs_.monitor != nullptr) obs_.monitor->clear();
  work_ns_.clear();
  task_weight_.clear();
  start_rank_.clear();
  extend_task_costs(0);
  metrics_.sequential_ns = simd::sum_i64(work_ns_.data(), work_ns_.size());

  // Fault state is rebuilt from the plan every run: re-running with the
  // same plan is bit-identical.
  alive_.assign(static_cast<size_t>(n), 1);
  live_.resize(static_cast<size_t>(n));
  for (i32 j = 0; j < n; ++j) live_[static_cast<size_t>(j)] = j;
  crash_time_.assign(static_cast<size_t>(n), kNever);
  dead_at_.assign(static_cast<size_t>(n), kNever);
  ckpt_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  ckpt_tasks_.clear();
  before_offsets_.clear();
  before_tasks_.clear();
  dead_pending_.clear();
  live_view_.reset();
  degraded_sched_.reset();
  live_coll_.reset();
  coll_op_counter_ = 0;
  mig_corr_ = 0;
  injector_.reset();
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    injector_.emplace(*fault_plan_, n);
    for (const sim::CrashFault& c : injector_->crashes()) {
      auto& slot = crash_time_[static_cast<size_t>(c.node)];
      slot = std::min(slot, c.time_ns);
    }
  }

  // Drain-sum fast path: the per-task measure cost is a fixed function of
  // the task (lazy drains the whole spawned subtree; eager only charges the
  // spawn overhead — children land in RTS, not the queue) unless the fault
  // plan contains slowdown windows, which make work position-dependent.
  // Crash- and message-fault-only plans keep the fast pass: neither fault
  // class changes the undisturbed drain times the measuring pass computes
  // (crashes are admitted against the measured drains afterwards, and
  // message faults only stretch the detection collectives), so the two
  // passes stay bit-identical.
  const bool position_dependent =
      injector_.has_value() && !injector_->plan().slowdowns.empty();
  fast_measure_ = !full_measure_ && !position_dependent;
  if (fast_measure_) {
    drain_cost_.resize(trace.size());
    extend_drain_cost(0);
  }

  metrics_.used_fast_measure = fast_measure_;
  job_counting_ = false;
  job_accounting_ = job_of_ != nullptr && num_jobs_ > 0;
  if (job_accounting_) {
    RIPS_CHECK_MSG(job_of_->size() == trace.size(),
                   "job map must have one entry per trace task");
    const auto nj = static_cast<size_t>(num_jobs_);
    job_tasks_.assign(nj, 0);
    job_work_ns_.assign(nj, 0);
    job_done_ns_.assign(nj, 0);
    job_migrated_.assign(nj, 0);
  } else {
    // Stale accumulators from a previous run must not leak into an online
    // run whose first tenant arrives only after the loop started (the
    // grow path resizes these, preserving existing entries).
    job_tasks_.clear();
    job_work_ns_.clear();
    job_done_ns_.clear();
    job_migrated_.clear();
  }
  if (obs_.bus != nullptr) {
    obs::RunStart rs;
    rs.engine = "rips";
    rs.num_nodes = n;
    rs.num_tasks = trace.size();
    obs_.bus->publish_run_begin(rs);
  }

  if (timeline_ != nullptr) timeline_->clear();
}

void RipsEngine::extend_drain_cost(size_t from) {
  const size_t m = trace_->size();
  drain_cost_.resize(m, 0);
  const bool lazy = config_.local == LocalPolicy::kLazy;
  for (size_t i = m; i-- > from;) {
    const auto task = static_cast<TaskId>(i);
    SimTime c = work_ns_[i];
    const u32 kids = trace_->num_children(task);
    c += static_cast<SimTime>(kids) * cost_.spawn_ns;
    if (lazy) {
      const TaskId* child = trace_->children_begin(task);
      c += simd::gather_sum_i64(drain_cost_.data(), child, kids);
    }
    drain_cost_[i] = c;
  }
}

void RipsEngine::extend_task_costs(size_t from) {
  const size_t m = trace_->size();
  work_ns_.resize(m);
  for (size_t i = from; i < m; ++i) {
    work_ns_[i] = cost_.work_time(trace_->task(static_cast<TaskId>(i)).work);
  }
  if (config_.weighted) {
    task_weight_.resize(m);
    for (size_t i = from; i < m; ++i) {
      task_weight_[i] =
          static_cast<i64>(trace_->task(static_cast<TaskId>(i)).work);
    }
  }
}

bool RipsEngine::machine_empty() const {
  for (NodeId phys : live_) {
    const auto& node = nodes_[static_cast<size_t>(phys)];
    if (!node.rte.empty() || !node.rts.empty()) return false;
  }
  return true;
}

sim::RunMetrics RipsEngine::run(const apps::TaskTrace& trace) {
  init_run_state(trace);
  release_segment_roots(0);
  SimTime t = 0;

  while (true) {
    t = system_phase(t);
    if (executed_total_ == trace.size()) {
      RIPS_CHECK(machine_empty());
      break;  // the final (empty) system phase detected termination
    }
    t = user_phase(t);
  }
  return finalize_run(t);
}

sim::RunMetrics RipsEngine::run_online(exec::TaskSource& source) {
  RIPS_CHECK_MSG(fault_plan_ == nullptr || fault_plan_->empty(),
                 "online mode does not support fault injection");
  // The source owns the job map in online mode: a set_job_map() binding
  // would go stale the moment the trace grows.
  job_of_ = source.job_of();
  num_jobs_ = job_of_ == nullptr ? 0 : source.num_jobs();
  init_run_state(source.trace());
  RIPS_CHECK_MSG(trace_->num_segments() == 1,
                 "online task sources must keep a single segment");
  // The segment barrier has no meaning when jobs arrive continuously; mark
  // the single segment released without placing roots — the source reports
  // every root (including any in its initial trace) through poll().
  released_segments_ = 1;
  online_synced_ = trace_->size();
  online_rr_ = 0;

  SimTime t = 0;
  bool drained = online_poll(source, &t, /*idle=*/true);
  while (true) {
    t = system_phase(t);
    if (machine_empty()) {
      RIPS_CHECK_MSG(executed_total_ == trace_->size(),
                     "machine idle with unexecuted tasks — the source "
                     "appended tasks without reporting their roots");
      if (drained) break;  // the final (empty) phase detected termination
      if (online_poll(source, &t, /*idle=*/true)) drained = true;
      continue;  // the next system phase schedules what just arrived
    }
    t = user_phase(t);
    if (online_poll(source, &t, /*idle=*/false)) drained = true;
  }
  return finalize_run(t);
}

bool RipsEngine::online_poll(exec::TaskSource& source, SimTime* t, bool idle) {
  exec::TaskSource::EngineView view;
  view.now = *t;
  view.machine_idle = idle;
  view.executed_total = executed_total_;
  view.job_executed = job_accounting_ ? job_tasks_.data() : nullptr;
  view.num_jobs = num_jobs_;
  online_roots_.clear();
  SimTime advance = 0;
  const exec::TaskSource::Poll st = source.poll(view, &online_roots_, &advance);
  RIPS_CHECK_MSG(advance >= 0, "task sources cannot advance time backwards");
  *t += advance;
  grow_online_state(source);
  // Inject the new roots round-robin across the live nodes: the spawn is
  // charged to the receiving node's overhead, and the very next system
  // phase rebalances them like any other RTS task — which is also what
  // keeps the conservation monitor clean (the roots are on a queue before
  // the phase snapshot is taken).
  for (TaskId r : online_roots_) {
    RIPS_CHECK_MSG(static_cast<size_t>(r) < trace_->size() &&
                       origin_[static_cast<size_t>(r)] == kInvalidNode,
                   "online root out of range or injected twice");
    const NodeId home = live_[static_cast<size_t>(online_rr_ % live_.size())];
    online_rr_ += 1;
    origin_[static_cast<size_t>(r)] = home;
    nodes_[static_cast<size_t>(home)].rts.push_back(r);
    nodes_[static_cast<size_t>(home)].ovh_ns += cost_.spawn_ns;
  }
  return st == exec::TaskSource::Poll::kDrained;
}

void RipsEngine::grow_online_state(const exec::TaskSource& source) {
  const size_t m = trace_->size();
  if (m == online_synced_ && source.num_jobs() == num_jobs_) return;
  RIPS_CHECK_MSG(m >= online_synced_, "online traces only grow");
  RIPS_CHECK_MSG(trace_->num_segments() == 1,
                 "online task sources must keep a single segment");
  origin_.resize(m, kInvalidNode);
  exec_node_.resize(m, kInvalidNode);
  extend_task_costs(online_synced_);
  metrics_.sequential_ns += simd::sum_i64(work_ns_.data() + online_synced_,
                                          m - online_synced_);
  if (fast_measure_) extend_drain_cost(online_synced_);
  online_synced_ = m;

  // Late-arriving tenants: the job map and the per-job accumulators grow
  // with the trace (resize preserves the earlier jobs' counts). Turning
  // accounting on at the first job is safe — nothing has executed before
  // the first poll delivers work.
  const i32 nj = source.num_jobs();
  if (job_of_ != nullptr && nj > num_jobs_) {
    num_jobs_ = nj;
    job_accounting_ = true;
    const auto s = static_cast<size_t>(nj);
    job_tasks_.resize(s, 0);
    job_work_ns_.resize(s, 0);
    job_done_ns_.resize(s, 0);
    job_migrated_.resize(s, 0);
  }
  if (job_accounting_) {
    RIPS_CHECK_MSG(job_of_->size() == m,
                   "job map must have one entry per trace task");
  }
}

sim::RunMetrics RipsEngine::finalize_run(SimTime t) {
  const i32 n = static_cast<i32>(nodes_.size());
  metrics_.makespan_ns = t;
  for (i32 j = 0; j < n; ++j) {
    const auto& node = nodes_[static_cast<size_t>(j)];
    metrics_.total_busy_ns += node.busy_ns;
    metrics_.total_overhead_ns += node.ovh_ns;
    if (alive_[static_cast<size_t>(j)]) {
      metrics_.total_idle_ns += t - node.busy_ns - node.ovh_ns;
    } else {
      // A dead node stops accumulating idle time at its death.
      const SimTime horizon = std::min(dead_at_[static_cast<size_t>(j)], t);
      const SimTime used = node.busy_ns + node.ovh_ns;
      metrics_.total_idle_ns += horizon > used ? horizon - used : 0;
    }
  }
  const u64 nonlocal = static_cast<u64>(
      simd::count_ne_i32(exec_node_.data(), origin_.data(), trace_->size()));
  c_tasks_nonlocal_->add(nonlocal);
  RIPS_CHECK_MSG(executed_total_ == trace_->size(),
                 "RIPS finished with unexecuted tasks");
  if (job_accounting_) {
    metrics_.jobs.resize(static_cast<size_t>(num_jobs_));
    for (size_t i = 0; i < trace_->size(); ++i) {
      if (exec_node_[i] != origin_[i]) {
        metrics_.jobs[static_cast<size_t>((*job_of_)[i])].nonlocal_tasks += 1;
      }
    }
    for (i32 j = 0; j < num_jobs_; ++j) {
      sim::JobMetrics& jm = metrics_.jobs[static_cast<size_t>(j)];
      jm.tasks = job_tasks_[static_cast<size_t>(j)];
      jm.work_ns = job_work_ns_[static_cast<size_t>(j)];
      jm.completion_ns = job_done_ns_[static_cast<size_t>(j)];
      jm.tasks_migrated = job_migrated_[static_cast<size_t>(j)];
      // The per-tenant slice in the registry, next to the machine-wide
      // counters the bench JSON already embeds.
      const std::string prefix = "job." + std::to_string(j) + ".";
      registry_.counter(prefix + "tasks_executed").add(jm.tasks);
      registry_.counter(prefix + "tasks_nonlocal").add(jm.nonlocal_tasks);
      registry_.counter(prefix + "tasks_migrated").add(jm.tasks_migrated);
      registry_.counter(prefix + "work_ns").add(static_cast<u64>(jm.work_ns));
      registry_.counter(prefix + "completion_ns")
          .add(static_cast<u64>(jm.completion_ns));
    }
  }
  // The registry is the source of truth for every counter column; the
  // Table-I view is derived from it once, here.
  metrics_.load_counters(registry_);
  if (obs_.bus != nullptr) obs_.bus->publish_run_end(metrics_.makespan_ns);
  return metrics_;
}

}  // namespace rips::core
