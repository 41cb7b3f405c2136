// JobServer — the core of rips_served (docs/SERVING.md), usable without
// any socket: the protocol tests and the CI smoke lane drive exactly this
// class.
//
// Architecture: ONE engine thread runs RipsEngine::run_online over a
// QueueSource whose poll() (engine thread) drains a mutex-guarded pending
// queue fed by submit() (caller threads). Submitted jobs append to the
// shared OnlineJobs trace mid-run — genuinely dynamic task injection, not
// trace replay — and every tenant's jobs multiplex through the engine's
// per-job accounting, so Jain fairness and per-job latency come out of the
// same RunMetrics machinery the batch benches use.
//
// Wall↔sim clock: while the simulated machine has work, time is simulated
// phase time; while it is idle, the engine thread blocks on the pending
// queue and the measured wall wait advances the simulated clock 1:1. Job
// latency (completion_ns - submit_ns) therefore spans queueing AND
// execution in one coherent timebase.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/task_source.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "obs/telemetry.hpp"
#include "rips/config.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "sim/metrics.hpp"
#include "util/types.hpp"

namespace rips::serve {

struct ServeOptions {
  i32 nodes = 64;                 ///< simulated machine size (up to 4096)
  core::RipsConfig config;        ///< scheduling policies (paper defaults)
  double ns_per_work = 500.0;     ///< cost model grain
  AdmissionOptions admission;
  u64 max_job_tasks = 200'000;    ///< per-job task-count cap (400 reject)
  bool monitors = true;           ///< attach the InvariantMonitor
  std::string blackbox_path;      ///< dump the flight recorder here on
                                  ///< shutdown ("" = no dump)
};

class JobServer {
 public:
  explicit JobServer(ServeOptions options);
  ~JobServer();  ///< shuts down (drains) if still running

  /// Launches the engine thread. Must be called at most once. Jobs
  /// submitted before it are admitted as usual and wait in the pending
  /// queue until the engine starts (drain()/shutdown() start it if it
  /// never ran, so no admitted job is lost).
  void start();

  struct SubmitOutcome {
    bool ok = false;
    i32 code = 0;             ///< error code when !ok
    std::string error;        ///< static-ish reason when !ok
    i64 retry_after_ms = -1;  ///< 429 hint
    i64 job_id = -1;
    u64 tasks = 0;            ///< size of the admitted job
    i32 pending = 0;          ///< queue depth after this submission
  };
  SubmitOutcome submit(const SubmitParams& params);

  /// Full protocol dispatch: one request line in, one reply line out
  /// (newline excluded). Thread-safe. *shutdown_requested (optional) is
  /// set when the line was a shutdown request, so a socket loop knows to
  /// exit after writing the reply. NOTE: drain/shutdown lines block until
  /// the engine finishes everything admitted.
  std::string handle_line(std::string_view line,
                          bool* shutdown_requested = nullptr);

  /// Stops admitting (submits reject with 409), wakes the engine thread
  /// and blocks until everything admitted has executed. Idempotent.
  void drain();

  /// drain() + flight-recorder blackbox dump (when configured).
  /// Idempotent; returns true on the call that performed the shutdown.
  bool shutdown();

  // --- observability (thread-safe) ---------------------------------------
  /// Tasks the engine has executed so far (updated every phase) — the
  /// "engine loop is provably running" probe used by tests and jobctl.
  u64 executed_total() const;
  i32 pending_jobs() const;
  i32 running_jobs() const;
  u64 jobs_done() const;
  bool draining() const;
  bool finished() const;

  /// Valid after drain()/shutdown(): the whole session's RunMetrics (job
  /// rows carry tenant-qualified names) and whether every invariant held.
  const sim::RunMetrics& result() const;
  bool monitors_ok() const;

  /// rips-bench-v1 document for the finished session: one run row (suite
  /// "serve") with per-job rows, Jain fairness and p50/p95/p99 job
  /// latency, validated by bench/check_bench_json and gated by bench_diff
  /// --fairness-tol exactly like the batch suites. Valid after drain().
  std::string bench_json() const;

  const obs::FlightRecorder& recorder() const { return recorder_; }

 private:
  class QueueSource;
  friend class QueueSource;

  struct Job {
    i64 id = -1;
    std::string tenant;
    std::string name;
    enum class State { kQueued, kRunning, kDone };
    State state = State::kQueued;
    i32 engine_index = -1;  ///< index into OnlineJobs once running
    u64 tasks = 0;
    SimTime submit_ns = 0;  ///< sim clock at admission
    SimTime done_ns = 0;    ///< sim clock at the completing phase
  };

  struct PendingJob {
    i64 id = -1;
    std::string name;
    apps::TaskTrace trace;
  };

  void engine_main();
  /// TaskSource::poll body, run on the engine thread (see QueueSource).
  exec::TaskSource::Poll engine_poll(const exec::TaskSource::EngineView& view,
                                     std::vector<TaskId>* new_roots,
                                     SimTime* advance_ns);
  void drain_locked();  ///< caller holds lifecycle_mu_
  void start_locked();  ///< caller holds mu_; launches the engine thread
  std::string status_reply(i64 job_id) const;
  std::string stats_reply() const;

  ServeOptions options_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingJob> pending_;
  std::vector<Job> jobs_;            // by job id
  std::vector<size_t> engine_to_job_;  // engine job index -> jobs_ index
  bool started_ = false;
  bool draining_ = false;
  bool finished_ = false;
  bool shutdown_done_ = false;
  SimTime sim_now_ = 0;      // last engine clock seen at a poll
  u64 executed_total_ = 0;
  i32 running_ = 0;
  u64 jobs_done_ = 0;
  // While the engine thread is blocked in the idle cv-wait, sim_now_ is
  // frozen at the wait's start; these let submit() place a submission at
  // wait-start-sim + elapsed-wall instead of the stale sim_now_, so the
  // first job after an idle stretch is not charged the whole idle wait.
  bool idle_wait_active_ = false;
  SimTime idle_wait_sim_ = 0;
  std::chrono::steady_clock::time_point idle_wait_wall_;
  // Queued + running jobs per tenant, maintained on admit/complete so
  // admission stays O(1) instead of scanning the ever-growing jobs_ list.
  std::unordered_map<std::string, i32> tenant_active_;
  sim::RunMetrics result_;
  std::string engine_registry_json_;
  bool monitors_ok_ = true;

  // Server-level counters (guarded by mu_), exported in stats replies:
  // server.{submitted,accepted,rejected_queue_full,rejected_tenant_cap,
  // rejected_draining,rejected_too_large,malformed,oversized,jobs_done}.
  obs::MetricsRegistry server_registry_;
  obs::Counter* c_submitted_;
  obs::Counter* c_accepted_;
  obs::Counter* c_rej_queue_;
  obs::Counter* c_rej_tenant_;
  obs::Counter* c_rej_draining_;
  obs::Counter* c_rej_too_large_;
  obs::Counter* c_malformed_;
  obs::Counter* c_oversized_;
  obs::Counter* c_jobs_done_;

  std::mutex lifecycle_mu_;  // serializes drain()/shutdown() callers

  // Engine-side observability (engine thread publishes; recorder dump
  // happens after the join in shutdown()).
  obs::TelemetryBus bus_;
  obs::InvariantMonitor monitor_;
  obs::FlightRecorder recorder_;
  std::unique_ptr<QueueSource> source_;
  std::thread engine_thread_;
};

}  // namespace rips::serve
