// Batch workloads: the engines run from this process, one thread, over
// traces built fresh at start-up.
//
//   paper-table1  the paper's nine traces plus the queens 11+12+13 mix at
//                 32 nodes under RIPS ANY-Lazy (monitors on), Random,
//                 Gradient and RID
//   scale-sparse  the `scale` preset (~1M tasks) at 16384 and 65536 nodes,
//                 RIPS with monitors on and phase snapshots off
//   faults-dense  the `scale` preset (~256K tasks) at 256/512/1024 nodes
//                 under seeded crash + slowdown + message-drop plans
//
// One pass runs every engine run of the workload once. A run first does a
// checked warm-up pass, then timed passes until --seconds are used up, and
// reports each engine run's fastest timed pass.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/gromos.hpp"
#include "apps/multi_job.hpp"
#include "apps/nqueens.hpp"
#include "apps/puzzle.hpp"
#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/gradient.hpp"
#include "balance/random_alloc.hpp"
#include "balance/rid.hpp"
#include "common.hpp"
#include "host_speed.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "sim/fault.hpp"
#include "topo/topology.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace rips;

enum class Engine { kRips, kRandom, kGradient, kRid };

const char* engine_span(Engine e) {
  switch (e) {
    case Engine::kRips: return "run.rips";
    case Engine::kRandom: return "run.random";
    case Engine::kGradient: return "run.gradient";
    case Engine::kRid: return "run.rid";
  }
  return "run";
}

struct TraceInput {
  std::string name;
  apps::TaskTrace trace;
  sim::CostModel cost;
  std::vector<i32> job_of;  ///< multi-job mix only
  i32 num_jobs = 0;
};

struct RunSpec {
  const TraceInput* input = nullptr;
  Engine engine = Engine::kRips;
  i32 nodes = 32;
  bool monitor = false;
  bool phase_snapshots = true;
  const sim::FaultPlan* plan = nullptr;
};

struct Workload {
  std::deque<TraceInput> inputs;   // deque: RunSpecs keep pointers
  std::deque<sim::FaultPlan> plans;
  std::vector<RunSpec> runs;
};

struct RunOutcome {
  sim::RunMetrics metrics;
  bool monitors_ok = true;
  std::string monitor_report;
  u64 executions = 0;   ///< summed from the engine's phase samples
  u64 lost = 0;         ///< executions crashes destroyed (crash events)
  u64 user_phases = 0;
  double submit_s = 0;  ///< engine construction start -> run-begin sample
  double total_s = 0;   ///< engine construction start -> export done
  double export_s = 0;  ///< MetricsRegistry::to_json
};

struct PassResult {
  std::vector<RunOutcome> runs;
  double seconds = 0;
};

/// What a pass attaches around each run.
struct PassProbes {
  ProbeMode mode = ProbeMode::kForward;
  bool monitors = true;     ///< honour RunSpec::monitor
  bool rips_only = false;
  ScheduleStats* stats = nullptr;
  SpanLog* spans = nullptr;
  HostSpeed* speed = nullptr;  ///< sampled after every run
};

RunOutcome run_one(const RunSpec& spec, u64 seed, const PassProbes& p,
                   i64 pass_span) {
  RunOutcome out;
  const Clock::time_point t_submit = Clock::now();
  i64 run_span = SpanLog::kNoParent;
  if (p.spans != nullptr) {
    run_span = p.spans->add(engine_span(spec.engine), t_submit, t_submit, pass_span);
  }
  const TraceInput& in = *spec.input;
  const topo::MeshShape shape = topo::paper_mesh_shape(spec.nodes);
  topo::Mesh mesh(shape.rows, shape.cols);
  // Phase windows are RIPS spans; dynamic runs are timed as a whole.
  PhaseClock clock(spec.engine == Engine::kRips ? p.spans : nullptr, p.stats);
  obs::TelemetryBus bus;
  bus.subscribe(&clock);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  o.bus = &bus;
  const std::vector<i32>* job_of = in.job_of.empty() ? nullptr : &in.job_of;
  std::string registry_json;
  Clock::time_point t_returned;
  if (spec.engine == Engine::kRips) {
    const bool monitored = spec.monitor && p.monitors;
    if (monitored) o.monitor = &monitor;
    sched::Mwa mwa(mesh);
    ProbedScheduler probed(mwa, p.mode, *p.stats, p.spans);
    core::RipsEngine engine(probed, in.cost, core::RipsConfig{});
    engine.set_obs(o);
    engine.set_fault_plan(spec.plan);
    engine.set_phase_snapshots(spec.phase_snapshots);
    engine.set_job_map(job_of, in.num_jobs);
    engine.set_scheduler_factory(probed_factory(p.mode, *p.stats, p.spans));
    clock.start(Clock::now(), run_span);
    out.metrics = engine.run(in.trace);
    t_returned = Clock::now();
    clock.finish(t_returned);
    registry_json = engine.metrics_registry().to_json();
    if (monitored && !monitor.ok()) {
      out.monitors_ok = false;
      out.monitor_report = monitor.report();
    }
  } else {
    std::unique_ptr<balance::Strategy> strategy;
    if (spec.engine == Engine::kRandom) {
      strategy = std::make_unique<balance::RandomAlloc>(seed);
    } else if (spec.engine == Engine::kGradient) {
      strategy = std::make_unique<balance::Gradient>();
    } else {
      strategy = std::make_unique<balance::Rid>(balance::Rid::Params{});
    }
    balance::DynamicEngine engine(mesh, in.cost, *strategy);
    engine.set_obs(o);
    engine.set_job_map(job_of, in.num_jobs);
    clock.start(Clock::now(), run_span);
    out.metrics = engine.run(in.trace);
    t_returned = Clock::now();
    registry_json = engine.metrics_registry().to_json();
  }
  const Clock::time_point t_done = Clock::now();
  if (registry_json.empty()) throw std::runtime_error("empty registry export");
  if (p.spans != nullptr) {
    p.spans->add("export", t_returned, t_done, run_span);
    p.spans->set_end(run_span, t_done);
  }
  out.executions = clock.executions();
  out.lost = clock.lost_executions();
  out.user_phases = clock.user_phases();
  out.submit_s = seconds_between(t_submit, clock.run_begin());
  out.total_s = seconds_between(t_submit, t_done);
  out.export_s = seconds_between(t_returned, t_done);
  return out;
}

PassResult run_pass(const Workload& w, u64 seed, const PassProbes& p,
                    Report& report) {
  PassResult pass;
  const Clock::time_point t0 = Clock::now();
  const i64 pass_span =
      p.spans != nullptr ? p.spans->add("pass", t0, t0, SpanLog::kNoParent)
                         : SpanLog::kNoParent;
  for (const RunSpec& spec : w.runs) {
    if (p.rips_only && spec.engine != Engine::kRips) continue;
    report.attempted += 1;
    pass.runs.push_back(run_one(spec, seed, p, pass_span));
    if (p.speed != nullptr) p.speed->sample();
  }
  const Clock::time_point t1 = Clock::now();
  if (p.spans != nullptr) p.spans->set_end(pass_span, t1);
  pass.seconds = seconds_between(t0, t1);
  return pass;
}

/// Correctness of one run that does not depend on earlier output.
void check_run(const RunSpec& spec, const RunOutcome& r, Report& report) {
  const TraceInput& in = *spec.input;
  const sim::RunMetrics& m = r.metrics;
  const std::string what = in.name + " " + engine_span(spec.engine) + " n=" +
                           std::to_string(spec.nodes) + ": ";
  report.check(r.monitors_ok, what + "invariant monitors tripped: " + r.monitor_report);
  // Committed executions equal the trace size with or without faults: what
  // a crashed node executed in its last user phase is lost with it and
  // redone by a survivor. Counting those lost executions too, the
  // executions performed are the trace size plus the re-executions.
  report.check(r.executions == in.trace.size(),
               what + "phase samples count " + std::to_string(r.executions) +
                   " executions, expected the trace size " + std::to_string(in.trace.size()));
  report.check(r.executions + r.lost == in.trace.size() + m.tasks_reexecuted,
               what + "executions performed (" + std::to_string(r.executions) + " committed + " +
                   std::to_string(r.lost) + " lost) != trace size + " +
                   std::to_string(m.tasks_reexecuted) + " re-executed");
  report.check(m.num_tasks == in.trace.size(), what + "num_tasks differs from the trace size");
  SimTime work = 0;
  for (size_t i = 0; i < in.trace.size(); ++i) {
    work += in.cost.work_time(in.trace.task(static_cast<TaskId>(i)).work);
  }
  report.check(m.sequential_ns == work,
               what + "sequential_ns differs from the trace's summed work time");
  report.check(m.makespan_ns > 0 &&
                   static_cast<double>(m.makespan_ns) * spec.nodes >=
                       static_cast<double>(work),
               what + "makespan below total work / nodes");
}

// --- inputs ----------------------------------------------------------------

constexpr double kQueensNsPerWork = 2000.0;  // apps/paper_workloads.cpp
constexpr double kIdaNsPerWork = 9600.0;
constexpr double kGromosNsPerPair = 13000.0;
constexpr double kScaleNsPerWork = 2000.0;   // bench/scale_sweep.cpp
constexpr i32 kQueensSplitDepth = 4;

struct KnownQueens {
  i32 n;
  u64 solutions;
};
constexpr KnownQueens kKnownQueens[] = {
    {11, 2680}, {12, 14200}, {13, 73712}, {14, 365596}, {15, 2279184}};

TraceInput& add_input(Workload& w, std::string name, apps::TaskTrace trace,
                      double ns_per_work) {
  TraceInput& in = w.inputs.emplace_back();
  in.name = std::move(name);
  in.trace = std::move(trace);
  in.cost.ns_per_work = ns_per_work;
  return in;
}

apps::TaskTrace queens_trace(i32 n, Report& report) {
  u64 solutions = 0;
  apps::TaskTrace trace = apps::build_nqueens_trace(n, kQueensSplitDepth, &solutions);
  for (const KnownQueens& k : kKnownQueens) {
    if (k.n == n) {
      report.check(solutions == k.solutions,
                   std::to_string(n) + "-Queens found " + std::to_string(solutions) +
                       " solutions, expected " + std::to_string(k.solutions));
    }
  }
  return trace;
}

struct IdaCheck {
  apps::PuzzleConfig config;
  apps::IdaStats stats;
};

struct BuildTimes {
  double queens = 0, ida = 0, gromos = 0, synthetic = 0;
};

void build_paper_table1(Workload& w, BuildTimes& bt,
                        std::vector<IdaCheck>& ida, Report& report) {
  Clock::time_point t = Clock::now();
  const auto lap = [&t](double& into) {
    const Clock::time_point now = Clock::now();
    into += seconds_between(t, now);
    t = now;
  };
  for (i32 n : {13, 14, 15}) {
    add_input(w, std::to_string(n) + "-Queens", queens_trace(n, report), kQueensNsPerWork);
  }
  lap(bt.queens);
  for (const apps::PuzzleConfig& c : apps::paper_puzzle_configs()) {
    IdaCheck& chk = ida.emplace_back();
    chk.config = c;
    add_input(w, "IDA* " + c.name, apps::build_ida_trace(c, &chk.stats), kIdaNsPerWork);
  }
  lap(bt.ida);
  for (double cutoff : {8.0, 12.0, 16.0}) {
    apps::GromosConfig gc;
    gc.cutoff_angstrom = cutoff;
    gc.num_steps = 5;
    add_input(w, "GROMOS " + std::to_string(static_cast<i32>(cutoff)) + " A",
              apps::build_gromos_trace(gc), kGromosNsPerPair);
  }
  lap(bt.gromos);
  // The multi-job mix reuses the 13-Queens trace built above.
  const apps::TaskTrace q11 = queens_trace(11, report);
  const apps::TaskTrace q12 = queens_trace(12, report);
  apps::MergedJobs merged = apps::merge_jobs(
      {{"11-Queens", &q11}, {"12-Queens", &q12}, {"13-Queens", &w.inputs[0].trace}});
  TraceInput& mix = add_input(w, "queens 11+12+13", std::move(merged.trace), kQueensNsPerWork);
  mix.job_of.assign(merged.owner.begin(), merged.owner.end());
  mix.num_jobs = static_cast<i32>(merged.jobs.size());
  lap(bt.queens);

  for (const TraceInput& in : w.inputs) {
    for (Engine e : {Engine::kRips, Engine::kRandom, Engine::kGradient, Engine::kRid}) {
      RunSpec spec;
      spec.input = &in;
      spec.engine = e;
      spec.nodes = 32;
      spec.monitor = true;
      w.runs.push_back(spec);
    }
  }
}

/// The `scale` preset sized for 5/4 of `target` tasks and capped at
/// `target` + 1, so every seed yields the same task count (the preset's
/// size otherwise varies by ~10% from seed to seed).
void build_scale(Workload& w, u64 seed, u64 target, BuildTimes& bt) {
  const Clock::time_point t = Clock::now();
  add_input(w, "scale-" + std::to_string(target),
            apps::build_synthetic_trace(apps::scale_config(target / 4 * 5), seed, target),
            kScaleNsPerWork);
  bt.synthetic += seconds_between(t, Clock::now());
}

void build_scale_sparse(Workload& w, u64 seed, BuildTimes& bt) {
  build_scale(w, seed, u64{1} << 20, bt);
  for (i32 nodes : {16384, 65536}) {
    RunSpec spec;
    spec.input = &w.inputs.back();
    spec.nodes = nodes;
    spec.monitor = true;
    spec.phase_snapshots = false;
    w.runs.push_back(spec);
  }
}

void build_faults_dense(Workload& w, u64 seed, BuildTimes& bt) {
  build_scale(w, seed, u64{1} << 18, bt);
  // ~1000/500/250 tasks per node. Every plan carries crashes, slowdown
  // windows and collective drops. The plans are fixed (only the trace
  // follows --seed): a crash count that varied with the seed would move the
  // simulated makespan by tens of percent from run to run. Slowdowns fall
  // in the first 300 ms of simulated time. Crashes are spread over 8 s, so
  // those that fire (six of nine: the three runs last ~7 s together)
  // fall after the initial system phase, most inside a user phase, and
  // destroy the work their node did in it (a crash timed inside a system
  // phase takes effect at the next user phase's start and loses nothing).
  for (i32 nodes : {256, 512, 1024}) {
    sim::FaultSpec fs;
    fs.horizon_ns = 300'000'000;
    fs.slowdown_mtbf_ns = 10e6;
    fs.slowdown_factor = 3.0;
    fs.slowdown_duration_ns = 20'000'000;
    fs.drop_prob = 0.02;
    sim::FaultPlan& plan = w.plans.emplace_back(
        sim::FaultPlan::generate(static_cast<u64>(nodes), nodes, fs));
    sim::FaultSpec crashes;
    crashes.horizon_ns = 8'000'000'000;
    crashes.crash_mtbf_ns = 2e9;
    crashes.max_crashes = 3;
    plan.crashes = sim::FaultPlan::generate(static_cast<u64>(nodes), nodes, crashes).crashes;
    RunSpec spec;
    spec.input = &w.inputs.back();
    spec.nodes = nodes;
    spec.monitor = true;
    spec.phase_snapshots = false;
    spec.plan = &plan;
    w.runs.push_back(spec);
  }
}

/// Extra cold set-ups per workload. One set-up of paper-table1 is seconds of
/// search; those of the synthetic workloads last 20-100 ms, mostly page
/// faults and process start, and one of them alone spreads by ~0.3.
int extra_cold_setups(const std::string& workload) {
  return workload == "paper-table1" ? 0 : 6;
}

/// One cold set-up in a fresh process: this program run with --setup-only,
/// which builds the same inputs and prints its set-up time from its start.
double cold_setup_in_child(const Options& opts) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  const std::string seed = std::to_string(opts.seed);
  const char* self = "/proc/self/exe";
  std::vector<char*> argv = {const_cast<char*>(self),
                             const_cast<char*>("--workload"),
                             const_cast<char*>(opts.workload.c_str()),
                             const_cast<char*>("--seed"),
                             const_cast<char*>(seed.c_str()),
                             const_cast<char*>("--setup-only"),
                             const_cast<char*>("1"),
                             nullptr};
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, self, &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char chunk[256];
    ssize_t n;
    while ((n = ::read(fds[0], chunk, sizeof chunk)) != 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      out.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fds[0]);
  if (rc != 0) {
    throw std::runtime_error("cannot start a set-up process: " + std::string(std::strerror(rc)));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  char* end = nullptr;
  const double s = std::strtod(out.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == out.c_str() || !(s > 0)) {
    throw std::runtime_error("a set-up process failed");
  }
  return s;
}

double sum_of(const PassResult& p, double RunOutcome::*field) {
  double s = 0;
  for (const RunOutcome& r : p.runs) s += r.*field;
  return s;
}

}  // namespace

void run_batch(const Options& opts, Report& report) {
  Workload w;
  BuildTimes bt;
  std::vector<IdaCheck> ida;
  if (opts.workload == "paper-table1") {
    build_paper_table1(w, bt, ida, report);
  } else if (opts.workload == "scale-sparse") {
    build_scale_sparse(w, opts.seed, bt);
  } else {
    build_faults_dense(w, opts.seed, bt);
  }
  const double own_setup_s = seconds_between(process_start(), Clock::now());
  if (opts.setup_only) {
    std::printf("%.9f\n", own_setup_s);
    return;
  }
  // setup_s: the median of this process's cold set-up and those of fresh
  // processes, each timed from its own start. A second set-up in this
  // process would be a warm one (heap and page tables already grown).
  std::vector<double> setups = {own_setup_s};
  for (int i = 0; i < extra_cold_setups(opts.workload); ++i) {
    setups.push_back(cold_setup_in_child(opts));
  }
  const double setup_s = median(setups);

  // Application checks, outside the set-up time.
  for (const IdaCheck& c : ida) {
    apps::Board15 start;
    start.scramble(c.config.scramble_steps, c.config.seed);
    const apps::IdaStats seq = apps::solve_ida(start);
    const i32 len = c.stats.solution_length;
    report.check(len >= 0 && len == seq.solution_length,
                 "IDA* " + c.config.name + ": trace solution length " + std::to_string(len) +
                     " != sequential " + std::to_string(seq.solution_length));
    report.check(len <= c.config.scramble_steps && (c.config.scramble_steps - len) % 2 == 0,
                 "IDA* " + c.config.name + ": solution length exceeds the scramble or "
                 "differs in parity");
  }

  // Checked warm-up pass: every schedule() result and every run is checked;
  // later passes must reproduce its metrics exactly.
  ScheduleStats warm_stats;
  PassProbes warm;
  warm.mode = ProbeMode::kCheck;
  warm.stats = &warm_stats;
  const PassResult reference = run_pass(w, opts.seed, warm, report);
  for (size_t i = 0; i < w.runs.size(); ++i) check_run(w.runs[i], reference.runs[i], report);
  report.check(warm_stats.check_failures == 0,
               "scheduler wrapper: " + std::to_string(warm_stats.check_failures) +
                   " bad schedule() results, first: " + warm_stats.first_failure);
  report.check(warm_stats.calls > 0, "no schedule() call was observed");
  const auto same_as_reference = [&](const PassResult& p) {
    for (size_t i = 0; i < p.runs.size(); ++i) {
      report.check(p.runs[i].metrics == reference.runs[i].metrics &&
                       p.runs[i].monitors_ok,
                   w.runs[i].input->name + ": a repeated run differs from the checked one");
    }
  };

  ScheduleStats plain_stats;
  PassProbes plain;
  plain.stats = &plain_stats;

  if (!opts.trace) {
    std::vector<PassResult> passes;
    HostSpeed speed;
    plain.speed = &speed;
    const Clock::time_point t0 = Clock::now();
    while (passes.empty() || seconds_between(t0, Clock::now()) < opts.seconds) {
      passes.push_back(run_pass(w, opts.seed, plain, report));
      same_as_reference(passes.back());
    }
    // Every pass repeats exactly the same work (checked above), so a run's
    // host time varies from pass to pass only by what the host does to it.
    // Each run's figure is its fastest timed pass: the shared host slows
    // passes down by up to a half for seconds at a time, and a run's median
    // follows such spells while its minimum does not. Throughput is that of
    // a pass made of every run at its best time. Scaling to the reference
    // speed takes out part of the spells that last a whole process.
    const double f = speed.factor();
    std::vector<double> job_ms(w.runs.size()), submit_ms(w.runs.size());
    double pass_tasks = 0, best_pass_s = 0;
    for (size_t i = 0; i < w.runs.size(); ++i) {
      double total = passes.front().runs[i].total_s;
      double submit = passes.front().runs[i].submit_s;
      for (const PassResult& p : passes) {
        total = std::min(total, p.runs[i].total_s);
        submit = std::min(submit, p.runs[i].submit_s);
      }
      job_ms[i] = 1e3 * total * f;
      submit_ms[i] = 1e3 * submit * f;
      pass_tasks += static_cast<double>(reference.runs[i].metrics.num_tasks);
      best_pass_s += total;
    }
    // Job latencies over the workload's runs: the geometric mean (the p50
    // figures: the typical run) and the nearest-rank p99 (the slowest run).
    // The runs differ in size by three orders of magnitude with neighbours
    // 10-15% apart, so a rank-based median jumps from one run to the next
    // whenever host noise reorders them; the geometric mean moves with every
    // run by its share.
    double eff = 0, makespan = 0, nonlocal = 0;
    for (const RunOutcome& r : reference.runs) {
      eff += r.metrics.efficiency();
      makespan += r.metrics.exec_s();
      nonlocal += static_cast<double>(r.metrics.nonlocal_tasks);
    }
    report.set("setup_s", setup_s);
    report.set("sim_tasks_per_s", pass_tasks / (best_pass_s * f));
    report.set("peak_rss_mb", peak_rss_mb_self());
    report.set("efficiency", eff / static_cast<double>(reference.runs.size()));
    report.set("sim_makespan_s", makespan);
    report.set("nonlocal_tasks", nonlocal);
    report.set("jobs_per_s", static_cast<double>(w.runs.size()) / (best_pass_s * f));
    report.set("job_p50_ms", geometric_mean(job_ms));
    report.set("job_p99_ms", percentile(job_ms, 0.99));
    report.set("submit_p50_ms", geometric_mean(submit_ms));
    report.set("submit_p99_ms", percentile(submit_ms, 0.99));
    std::string pass_s;
    for (const PassResult& p : passes) pass_s += " " + std::to_string(p.seconds);
    u64 crashes = 0, reexecuted = 0;
    for (const RunOutcome& r : reference.runs) {
      crashes += r.metrics.crashes;
      reexecuted += r.metrics.tasks_reexecuted;
    }
    std::fprintf(stderr,
                 "%s: setup %.4f s (median of %zu cold set-ups; this process %.4f s, traces "
                 "%.4f s); %llu crashes, %llu tasks re-executed; %zu runs per pass; reference kernel "
                 "%.6f s (median of %zu), speed factor %.4f; unscaled: %.6g tasks/s, fastest "
                 "pass %.6f s; timed passes (s):%s\n",
                 opts.workload.c_str(), setup_s, setups.size(), own_setup_s,
                 bt.queens + bt.ida + bt.gromos + bt.synthetic,
                 static_cast<unsigned long long>(crashes),
                 static_cast<unsigned long long>(reexecuted), w.runs.size(), speed.median_s(), speed.samples(), f,
                 pass_tasks / best_pass_s, best_pass_s, pass_s.c_str());
    return;
  }

  // Traced run: rounds of an untraced pass, a traced pass and the RIPS runs
  // traced again without the invariant monitor, until --seconds are used
  // up. Times are per traced pass (mean over rounds); the tracing overhead
  // and the monitor cost are medians over rounds.
  ScheduleStats stats;
  SpanLog spans;
  std::vector<double> untraced_s, overhead_s, monitor_s;
  std::vector<PassResult> traced_passes;
  const Clock::time_point t0 = Clock::now();
  while (traced_passes.empty() || seconds_between(t0, Clock::now()) < opts.seconds) {
    const PassResult untraced = run_pass(w, opts.seed, plain, report);
    same_as_reference(untraced);
    PassProbes traced;
    traced.mode = ProbeMode::kTime;
    traced.stats = &stats;
    traced.spans = &spans;
    traced_passes.push_back(run_pass(w, opts.seed, traced, report));
    const PassResult& tp = traced_passes.back();
    same_as_reference(tp);
    ScheduleStats bare_stats;
    SpanLog bare_spans;
    PassProbes bare = traced;
    bare.stats = &bare_stats;
    bare.spans = &bare_spans;
    bare.monitors = false;
    bare.rips_only = true;
    const PassResult unmonitored = run_pass(w, opts.seed, bare, report);
    double rips_monitored = 0;
    for (size_t i = 0; i < w.runs.size(); ++i) {
      if (w.runs[i].engine == Engine::kRips) rips_monitored += tp.runs[i].total_s;
    }
    untraced_s.push_back(untraced.seconds);
    overhead_s.push_back(tp.seconds - untraced.seconds);
    monitor_s.push_back(rips_monitored - sum_of(unmonitored, &RunOutcome::total_s));
  }
  const double passes = static_cast<double>(traced_passes.size());

  report.set("apps.queens_build_s", bt.queens);
  report.set("apps.ida_build_s", bt.ida);
  report.set("apps.gromos_build_s", bt.gromos);
  report.set("apps.synthetic_build_s", bt.synthetic);
  double trace_tasks = 0;
  for (const TraceInput& in : w.inputs) trace_tasks += static_cast<double>(in.trace.size());
  report.set("apps.trace_tasks", trace_tasks);
  for (const PassResult& tp : traced_passes) {
    for (size_t i = 0; i < w.runs.size(); ++i) {
      const double t = tp.runs[i].total_s / passes;
      switch (w.runs[i].engine) {
        case Engine::kRandom: report.add("balance.random_s", t); break;
        case Engine::kGradient: report.add("balance.gradient_s", t); break;
        case Engine::kRid: report.add("balance.rid_s", t); break;
        case Engine::kRips: break;
      }
    }
  }
  // Counts are identical in every pass (checked above); take the first.
  for (size_t i = 0; i < w.runs.size(); ++i) {
    if (w.runs[i].engine != Engine::kRips) continue;
    const RunOutcome& r = traced_passes.front().runs[i];
    const sim::RunMetrics& m = r.metrics;
    report.add("rips.system_phases", static_cast<double>(m.system_phases));
    report.add("rips.user_phases", static_cast<double>(r.user_phases));
    report.add("rips.tasks_migrated", static_cast<double>(m.tasks_migrated));
    report.add("rips.full_measure_runs", m.used_fast_measure ? 0.0 : 1.0);
    report.add("rips.crashes", static_cast<double>(m.crashes));
    report.add("rips.tasks_reexecuted", static_cast<double>(m.tasks_reexecuted));
    report.add("coll.dropped_msgs", static_cast<double>(m.dropped_messages));
    report.add("coll.retries", static_cast<double>(m.message_retries));
  }
  report.set("rips.run_init_s", spans.self_time("run_init") / passes);
  report.set("rips.system_phase_s", spans.self_time("system_phase") / passes);
  report.set("rips.user_phase_s", spans.self_time("user_phase") / passes);
  report.set("rips.finalize_s", spans.self_time("finalize") / passes);
  report.set("sched.schedule_s", spans.self_time("schedule") / passes);
  report.set("sched.schedule_calls", static_cast<double>(stats.calls) / passes);
  report.set("sched.transfers", static_cast<double>(stats.transfers) / passes);
  report.set("sched.comm_steps", static_cast<double>(stats.comm_steps) / passes);
  report.set("sched.active_node_share",
             stats.node_slots == 0 ? 0.0
                                   : static_cast<double>(stats.active_nodes) /
                                         static_cast<double>(stats.node_slots));
  report.set("obs.monitor_s", median(monitor_s));
  double export_s = 0;
  for (const PassResult& tp : traced_passes) export_s += sum_of(tp, &RunOutcome::export_s);
  report.set("obs.export_s", export_s / passes);
  report.set("trace.untraced_s", median(untraced_s));
  report.set("trace.overhead_s", median(overhead_s));

  const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".spans.tsv";
  report.check(spans.write_tsv(path), "cannot write " + path);
  std::fprintf(stderr, "%s: wrote %zu spans to %s\n", opts.workload.c_str(), spans.size(),
               path.c_str());
}

}  // namespace perfbench
