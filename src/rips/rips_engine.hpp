// RipsEngine — Runtime Incremental Parallel Scheduling (the paper's core
// contribution, Figure 1).
//
// Execution alternates between
//   SYSTEM PHASES: all processors cooperatively collect global load
//     information and rebalance their ready-to-schedule tasks with a
//     ParallelScheduler (MWA on meshes). Cost = the scheduler's lock-step
//     communication steps plus the per-node task-migration CPU time.
//   USER PHASES: every processor executes tasks from its RTE queue.
//     Lazy policy: spawned children enter the local RTE directly and may
//     run without ever being scheduled. Eager policy: children enter the
//     RTS queue and wait for the next system phase.
//     The phase ends per the global policy: ANY (first processor to drain
//     its RTE broadcasts `init`; everyone stops after its current task) or
//     ALL (tree ready-signal once every RTE drained). A periodic-reduction
//     detection mode models the naive implementation the paper argues
//     against (bench/ablation_interval).
//
// Synchronization segments of the trace (IDA* iterations, MD steps) end at
// a system phase that finds no work: the next segment's roots materialize
// on the nodes that executed the corresponding tasks of the previous
// segment (data affinity) and are scheduled in that same phase.
//
// FAULT TOLERANCE (docs/FAULTS.md). With a sim::FaultPlan attached the
// engine survives fail-stop crashes, slowdown windows and lost collective
// messages. System phases double as recovery lines: each one snapshots the
// per-node RTE assignment (origin-replicated task descriptors =
// phase-granularity checkpointing); when survivors detect a dead node —
// heartbeat piggybacked on the ready/init signals, one timeout instead of
// a hung barrier — the next system phase rebuilds the live-node set, a
// survivor adopts and re-injects the dead node's checkpointed tasks, and
// scheduling continues over the degraded machine through a topo::LiveView
// rank remap plus a scheduler rebuilt for the survivor count. Work the
// dead node did since the last recovery line is lost and re-executed
// (counted in RunMetrics::tasks_reexecuted); every task still executes at
// least once. Fault-free runs are bit-identical to the engine without a
// plan attached.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/task_trace.hpp"
#include "coll/collectives.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rips/config.hpp"
#include "sched/scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/task_queue.hpp"
#include "sim/timeline.hpp"
#include "topo/live_view.hpp"
#include "util/types.hpp"

namespace rips::exec {
class TaskSource;
}

namespace rips::core {

class RipsEngine {
 public:
  RipsEngine(sched::ParallelScheduler& scheduler, const sim::CostModel& cost,
             RipsConfig config);

  /// Executes the whole trace; returns Table-I style metrics.
  sim::RunMetrics run(const apps::TaskTrace& trace);

  /// Online serving mode (docs/SERVING.md): instead of replaying a finite
  /// trace known up front, pulls work from a TaskSource between phases —
  /// jobs submitted while the loop is already running spawn tasks
  /// dynamically mid-run. The source is polled after every user phase and
  /// (blockingly) whenever the machine runs out of work; new roots are
  /// injected round-robin across the live nodes and rebalanced by the very
  /// next system phase. Returns when the source reports kDrained and
  /// everything injected has executed, with the same Table-I metrics as
  /// run(). Fault plans are not supported in online mode, and the source's
  /// job map (if any) replaces a set_job_map() binding for the run.
  sim::RunMetrics run_online(exec::TaskSource& source);

  /// Optional instrumentation: when set, every task execution and system
  /// phase of subsequent runs is recorded (the timeline is cleared at the
  /// start of each run). Pass nullptr to detach.
  void set_timeline(sim::Timeline* timeline) { timeline_ = timeline; }

  /// Structured observability (docs/OBSERVABILITY.md): an optional
  /// TraceSession (Perfetto span export — system phases, user phases, task
  /// executions, collective retries, crash/recovery) and an optional
  /// InvariantMonitor (Theorem-1 balance, Theorem-2 locality, task
  /// conservation, checked every system phase). Both sinks are passive:
  /// runs with and without them attached produce bit-identical metrics.
  /// Pass {} to detach.
  void set_obs(const obs::Obs& o) { obs_ = o; }

  /// Counters / gauges / histograms of the last run — the engine's source
  /// of truth for RunMetrics' counter columns, plus per-phase snapshots
  /// and distributions RunMetrics cannot express (load imbalance, tasks
  /// moved, phase durations). Always maintained; reset at run start.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Optional fault injection: subsequent runs replay the plan's crashes,
  /// slowdowns and message faults. Pass nullptr to detach. The plan is
  /// read-only; re-running with the same plan reproduces identical
  /// metrics.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_plan_ = plan; }

  /// Per-phase registry snapshots (labels "phase=N") power the Table-II
  /// style reports but append to the registry every system phase. Scale
  /// runs and the allocation regression test turn them off; metrics and
  /// results are unaffected (snapshots are a passive copy).
  void set_phase_snapshots(bool on) { phase_snapshots_ = on; }

  /// Forces the original measuring pass that re-simulates every node's
  /// full RTE drain (O(subtree) per phase). The default uses precomputed
  /// per-task drain costs (O(queue length) per phase) whenever no fault
  /// plan is attached; both paths produce bit-identical results — this
  /// switch exists so benchmarks can measure one against the other in the
  /// same binary.
  void set_full_measure_pass(bool on) { full_measure_ = on; }

  /// Which measuring pass the last run actually used (a fault plan with
  /// slowdown windows forces the full pass even when the fast one was
  /// requested — crash- and message-fault-only plans keep the drain-sum
  /// path, which stays bit-identical because neither fault class changes
  /// the undisturbed drain times the measuring pass computes). Also
  /// recorded in RunMetrics::used_fast_measure and the rips-bench-v1
  /// output.
  bool used_fast_measure() const { return fast_measure_; }

  /// Optional per-task job ownership for multi-job runs
  /// (apps::MergedJobs::owner, values in [0, num_jobs)). While attached,
  /// subsequent runs account tasks, executed work, completion time,
  /// migrations and non-local executions PER JOB (RunMetrics::jobs plus
  /// "job.<i>.*" registry counters) — the per-tenant view the perf lab's
  /// fairness index is computed from. When a telemetry bus is also
  /// attached, every user phase additionally publishes one PhaseSample per
  /// job carrying that job's executed-task count (PhaseSample::job = job
  /// index). Purely observational either way: the run's own results and
  /// every pre-existing metric are bit-identical with or without a map.
  /// Pass nullptr to detach. `job_of` must outlive subsequent runs and
  /// have one entry per trace task.
  void set_job_map(const std::vector<i32>* job_of, i32 num_jobs) {
    job_of_ = job_of;
    num_jobs_ = job_of == nullptr ? 0 : num_jobs;
  }

  /// Test hook: invoked at the end of every system phase with the phase
  /// index. The allocation regression test uses it to bracket a
  /// steady-state window; a plain function pointer so attaching and
  /// invoking it never allocates.
  using PhaseProbe = void (*)(void* ctx, u64 phase_idx);
  void set_phase_probe(PhaseProbe probe, void* ctx) {
    phase_probe_ = probe;
    probe_ctx_ = ctx;
  }

  /// Scheduler builder used to rebuild the scheduler over the survivors
  /// after a crash (the constructor-provided scheduler only fits the full
  /// machine). Defaults to sched::any_size_mesh_factory().
  void set_scheduler_factory(sched::SchedulerFactory factory) {
    factory_ = std::move(factory);
  }

  /// Physical ids of the nodes still alive after the last run.
  const std::vector<NodeId>& live_nodes() const { return live_; }

  /// Per-system-phase breakdown of the last run (Section 4's 15-Queens
  /// narrative: phases, non-local tasks per phase, migration time).
  struct PhaseStats {
    u64 tasks_scheduled = 0;  ///< tasks visible to the scheduler
    u64 tasks_moved = 0;      ///< tasks that changed node in this phase
    i64 comm_steps = 0;       ///< scheduler lock-step rounds
    SimTime duration_ns = 0;  ///< wall time of the system phase
  };
  const std::vector<PhaseStats>& phases() const { return phases_; }

  /// Per-user-phase timing of the last run (for diagnosis and the policy
  /// ablation bench).
  struct UserPhaseStats {
    SimTime start_ns = 0;     ///< user phase begin
    SimTime cond_ns = 0;      ///< when the global condition was met
    SimTime end_ns = 0;       ///< when the next system phase began
    u64 tasks_executed = 0;
  };
  const std::vector<UserPhaseStats>& user_phases() const {
    return user_phases_;
  }

 private:
  struct NodeRt {
    sim::TaskQueue rte;        // ready to execute
    std::vector<TaskId> rts;   // ready to schedule (eager policy)
    SimTime busy_ns = 0;
    SimTime ovh_ns = 0;
  };

  /// How simulate_user_phase treats the node's state.
  enum class PhaseMode {
    kMeasure,  ///< scratch state, returns the drain time only
    kCommit,   ///< commits execution, spawns and queue updates
    kDoomed,   ///< scratch state of a node that crashes at `stop_t`:
               ///< executions are tallied as lost, nothing is committed
  };

  /// Simulates one node's user phase. `stop_t` is the time the node learns
  /// of the phase transfer — or dies (kDoomed): it finishes the task in
  /// flight, then stops. In kDoomed mode `lost_execs` / `lost_work_ns`
  /// receive the executions whose results die with the node.
  SimTime simulate_user_phase(NodeId node, SimTime start_t, SimTime stop_t,
                              PhaseMode mode, u64* lost_execs = nullptr,
                              SimTime* lost_work_ns = nullptr);

  void release_segment_roots(u32 segment);
  SimTime system_phase(SimTime t);
  SimTime user_phase(SimTime t);

  /// Shared bracket of run() and run_online(): per-run state reset /
  /// derivation of the final RunMetrics once the phase loop terminated.
  void init_run_state(const apps::TaskTrace& trace);
  sim::RunMetrics finalize_run(SimTime t);
  /// Extends the drain-cost fast path over tasks [from, trace size): one
  /// backward sweep, valid incrementally because children always carry
  /// larger ids than their parent (so a new task's subtree is entirely
  /// inside the new range or already computed).
  void extend_drain_cost(size_t from);
  /// Extends the flat per-task cost arrays (work_ns_, and task_weight_ in
  /// weighted mode) over tasks [from, trace size).
  void extend_task_costs(size_t from);
  bool machine_empty() const;

  /// One TaskSource poll (online mode): advances the clock by the source's
  /// reported idle wait, syncs engine state over newly appended tasks and
  /// injects the new roots. Returns true once the source is drained.
  bool online_poll(exec::TaskSource& source, SimTime* t, bool idle);
  /// Grows origin_/exec_node_/sequential_ns/drain_cost_/job arrays over
  /// tasks the source appended since the last sync.
  void grow_online_state(const exec::TaskSource& source);

  /// Recovery line: marks pending deaths permanent, rebuilds the live
  /// view / scheduler / collectives, re-injects checkpointed tasks of the
  /// dead onto their nearest survivors. Returns the extra system-phase
  /// time spent on membership agreement.
  SimTime recover(SimTime t);

  sched::ParallelScheduler& active_scheduler() {
    return degraded_sched_ ? *degraded_sched_ : scheduler_;
  }
  const topo::Topology& base_topology() const { return scheduler_.topology(); }
  /// Hop distance between two live physical nodes on the current machine.
  i32 machine_distance(NodeId phys_a, NodeId phys_b) const;
  i32 machine_diameter() const;
  coll::Collectives& detection_collectives();
  NodeId nearest_live(NodeId phys) const;

  sched::ParallelScheduler& scheduler_;
  sim::CostModel cost_;
  RipsConfig config_;

  const apps::TaskTrace* trace_ = nullptr;
  std::vector<NodeRt> nodes_;
  sim::TaskQueue scratch_rte_;  // measuring-pass clone, reused across calls
  std::vector<NodeId> origin_;
  std::vector<NodeId> exec_node_;
  u64 executed_total_ = 0;
  u32 released_segments_ = 0;
  std::vector<PhaseStats> phases_;
  std::vector<UserPhaseStats> user_phases_;
  sim::Timeline* timeline_ = nullptr;
  sim::RunMetrics metrics_;

  // Multi-job accounting (set_job_map). job_accounting_ is on for the
  // whole run whenever a map is attached — independent of any bus, so
  // RunMetrics::jobs and the "job.<i>.*" counters are identical with and
  // without telemetry. job_counting_ additionally gates the per-phase
  // PhaseSample fan-out (bus-only cost); job_exec_ is its per-phase
  // scratch.
  const std::vector<i32>* job_of_ = nullptr;
  i32 num_jobs_ = 0;
  std::vector<u64> job_exec_;
  bool job_counting_ = false;
  bool job_accounting_ = false;
  std::vector<u64> job_tasks_;        // cumulative executions per job
  std::vector<SimTime> job_work_ns_;  // cumulative executed work per job
  std::vector<SimTime> job_done_ns_;  // latest task end per job
  std::vector<u64> job_migrated_;     // task moves per job

  // Online mode (run_online) bookkeeping.
  std::vector<TaskId> online_roots_;  // per-poll scratch
  size_t online_synced_ = 0;          // tasks synced into engine state
  u64 online_rr_ = 0;                 // round-robin root placement cursor

  // --- steady-state scratch arenas ---------------------------------------
  // Every per-phase working vector lives here and is overwritten in place:
  // after the first few phases a system phase performs zero heap
  // allocations (with phase snapshots off, monitors attached or not),
  // which is what lets the engine scale to thousands of simulated nodes.
  // Enforced by the allocation-counter regression test
  // (tests/test_alloc.cpp).

  /// Replay run: a slice of before_tasks_ whose tasks share one origin,
  /// read forward or backwards, that made `hops` transfers this phase.
  /// A rank's queue of local (or foreign) tasks is a linked list of runs;
  /// a transfer relinks whole runs and splits at most one per list, so the
  /// replay costs O(runs) per transfer instead of O(tasks) per hop.
  static constexpr i32 kNoRun = -1;
  struct Run {
    size_t begin;
    size_t end;
    i32 prev;
    i32 next;
    NodeId origin;
    i32 hops;
    bool reversed;
  };
  struct RunList {
    i32 head = kNoRun;
    i32 tail = kNoRun;
    i64 size = 0;  // tasks in the list
  };
  struct RankRuns {
    RunList local;    // tasks whose origin is this rank's node
    RunList foreign;  // everything else
  };
  /// Appends run `run` (a new entry of runs_) to `list`.
  void push_run(RunList& list, const Run& run);
  /// Appends the unlinked entry runs_[idx] to `list`.
  void link_run(RunList& list, i32 idx);
  /// Moves the last `take` tasks of `from` to `dst` in the order popping
  /// them one by one would: each run (or split-off tail of one) flips
  /// direction, gains a hop and joins dst's local list if its origin is
  /// `to_phys`, its foreign list otherwise.
  void move_tail(RunList& from, i64 take, RankRuns& dst, NodeId to_phys);
  /// Per-transfer payloads, kept only while tracing so the send/recv
  /// instants can carry matching correlation ids.
  struct TracedTransfer {
    NodeId from;
    NodeId to;
    i64 sent;
  };
  std::vector<i64> load_;            // per-rank loads (system phase)
  std::vector<Run> runs_;            // replay runs of this phase
  std::vector<RankRuns> ranks_;      // per-rank run lists
  std::vector<SimTime> migration_;   // per-rank migration CPU time
  std::vector<TracedTransfer> traced_;
  std::vector<SimTime> drain_;       // user phase: per-node drain times
  std::vector<SimTime> crash_eff_;   // user phase: effective crash times
  std::vector<char> doomed_;         // user phase: admitted crashes
  // Every task collected at phase begin, as flat CSR by rank (offsets +
  // one backing array; within a rank, own tasks first, then foreign ones
  // backwards). The replay runs point into it, and the monitors read it as
  // the begin-of-phase snapshot.
  std::vector<size_t> before_offsets_;
  std::vector<TaskId> before_tasks_;
  // Conservation-scan scratch: start rank per task id, kUnseenRank when
  // the task was not on any queue at phase begin. Grown lazily to trace
  // size on first monitored phase; entries touched by a scan are restored
  // to kUnseenRank before it returns, so each phase is O(snapshot) with no
  // hashing (replaces the per-phase unordered_map).
  std::vector<i32> start_rank_;

  // --- flat per-task cost state (structure-of-arrays) ---------------------
  // The hot sweeps (measuring pass, load collection, weighted migration)
  // index these flat arrays by TaskId instead of chasing trace nodes, so
  // each pass is a pure gather the data-level kernels (util/simd.hpp) can
  // stream. Filled by extend_task_costs; task_weight_ only in weighted
  // mode.
  std::vector<SimTime> work_ns_;   // cost_.work_time(task.work) per task
  std::vector<i64> task_weight_;   // task.work per task (weighted mode)

  // --- drain-cost fast path ----------------------------------------------
  // drain_cost_[t]: the simulated time a node spends on task t during a
  // full RTE drain — work + spawn overhead, plus (lazy policy) the cost of
  // every descendant, which execute in the same phase. Children always
  // have larger ids than their parent, so one backward sweep fills it.
  // The measuring pass then reduces to summing queue entries: exact i64
  // arithmetic and order independence make it bit-identical to the full
  // simulation. Invalid (and unused) only when the attached fault plan
  // contains slowdown windows — those make work position-dependent;
  // crashes and message faults never touch the undisturbed drain times.
  std::vector<SimTime> drain_cost_;
  bool fast_measure_ = false;  // valid for the current run
  bool full_measure_ = false;
  bool phase_snapshots_ = true;
  PhaseProbe phase_probe_ = nullptr;
  void* probe_ctx_ = nullptr;

  // --- observability -----------------------------------------------------
  // The registry is the engine's counter store (RunMetrics is derived from
  // it at the end of run()); the cached pointers make each increment one
  // add through a pointer — the same cost as the struct fields they
  // replaced. obs_ carries the optional external sinks.

  /// Theorem-2 bookkeeping for one system phase (monitor-only cost).
  /// Reads the begin-of-phase CSR snapshot (before_offsets_/before_tasks_).
  void check_phase_invariants(u64 phase, const std::vector<i64>& load,
                              const sched::ScheduleResult& plan, i64 total);

  obs::Obs obs_;
  obs::MetricsRegistry registry_;
  obs::Counter* c_tasks_executed_;
  obs::Counter* c_tasks_nonlocal_;
  obs::Counter* c_tasks_migrated_;
  obs::Counter* c_msg_sent_;
  obs::Counter* c_phase_system_;
  obs::Counter* c_phase_user_;
  obs::Counter* c_crashes_;
  obs::Counter* c_recovery_phases_;
  obs::Counter* c_reinjected_;
  obs::Counter* c_reexecuted_;
  obs::Counter* c_dropped_msgs_;
  obs::Counter* c_msg_retries_;
  obs::Counter* c_lost_work_ns_;
  obs::Counter* c_recovery_time_ns_;
  obs::Gauge* g_rts_total_;
  obs::Gauge* g_live_nodes_;
  obs::Histogram* h_phase_imbalance_;
  obs::Histogram* h_phase_moved_;
  obs::Histogram* h_phase_dur_us_;
  obs::Histogram* h_uphase_tasks_;

  // --- fault tolerance ---------------------------------------------------
  struct PendingDeath {
    NodeId node = kInvalidNode;
    SimTime at = 0;
    u64 lost_execs = 0;
    SimTime lost_work_ns = 0;
  };

  const sim::FaultPlan* fault_plan_ = nullptr;
  std::optional<sim::FaultInjector> injector_;  // rebuilt per run
  sched::SchedulerFactory factory_;
  std::vector<char> alive_;               // per physical node
  std::vector<NodeId> live_;              // rank -> physical, sorted
  std::vector<SimTime> crash_time_;       // per physical node, kNever if none
  std::vector<SimTime> dead_at_;          // per physical node, kNever alive
  // RTE assignment at the last system phase as flat CSR over ALL physical
  // nodes (dead nodes own empty spans): ckpt_tasks_[ckpt_offsets_[p] ..
  // ckpt_offsets_[p+1]) is node p's checkpointed queue. Rebuilt in place
  // at the end of every system phase — no per-node vectors, no
  // steady-state allocation.
  std::vector<size_t> ckpt_offsets_;
  std::vector<TaskId> ckpt_tasks_;
  std::vector<PendingDeath> dead_pending_;
  std::unique_ptr<topo::LiveView> live_view_;    // null while all alive
  std::unique_ptr<sched::ParallelScheduler> degraded_sched_;
  std::unique_ptr<coll::Collectives> live_coll_;
  std::unique_ptr<coll::Collectives> base_coll_;
  u64 coll_op_counter_ = 0;
  i64 mig_corr_ = 0;  // next migration send/recv correlation id (per run)
};

}  // namespace rips::core
