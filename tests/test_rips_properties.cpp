// Property sweep for the RIPS engine: every policy combination times a
// grid of synthetic workload shapes must conserve tasks, satisfy the
// accounting identity, respect the optimal-efficiency bound and stay
// deterministic. Catches interaction bugs the targeted tests miss.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "apps/multi_job.hpp"
#include "apps/synthetic.hpp"
#include "obs/obs.hpp"
#include "rips/rips_engine.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

namespace rips::core {
namespace {

struct Shape {
  const char* name;
  apps::SyntheticConfig config;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  {
    apps::SyntheticConfig c;
    c.num_roots = 100;
    c.spawn_prob = 0.0;
    c.work_model = 0;
    out.push_back({"FlatConst", c});
  }
  {
    apps::SyntheticConfig c;
    c.num_roots = 16;
    c.spawn_prob = 0.8;
    c.max_depth = 5;
    c.max_branch = 5;
    c.work_model = 2;
    out.push_back({"DeepExp", c});
  }
  {
    apps::SyntheticConfig c;
    c.num_roots = 40;
    c.num_segments = 4;
    c.spawn_prob = 0.3;
    c.work_model = 3;
    out.push_back({"SegmentedBimodal", c});
  }
  {
    apps::SyntheticConfig c;
    c.num_roots = 3;  // fewer tasks than nodes
    c.spawn_prob = 0.5;
    c.max_depth = 2;
    c.work_model = 1;
    out.push_back({"Tiny", c});
  }
  return out;
}

using Param = std::tuple<i32, i32, i32>;  // shape idx, policy idx, sched idx

// Free function (not a lambda) for parameter naming: brace initializers
// inside a lambda would be split apart by the INSTANTIATE macro.
std::string sweep_name(const ::testing::TestParamInfo<Param>& info) {
  static const char* const kPolicies[] = {"ALLEager", "ALLLazy", "ANYEager",
                                          "ANYLazy"};
  static const char* const kKinds[] = {"mwa", "torus", "hwa", "twa"};
  const i32 s = std::get<0>(info.param);
  const i32 p = std::get<1>(info.param);
  const i32 k = std::get<2>(info.param);
  return std::string(shapes()[static_cast<size_t>(s)].name) + "_" +
         kPolicies[p] + "_" + kKinds[k];
}

class RipsPropertySweep : public ::testing::TestWithParam<Param> {};

TEST_P(RipsPropertySweep, InvariantsHold) {
  const auto [shape_idx, policy_idx, sched_idx] = GetParam();
  const Shape shape = shapes()[static_cast<size_t>(shape_idx)];
  const auto trace = apps::build_synthetic_trace(
      shape.config, 7000 + static_cast<u64>(shape_idx));

  RipsConfig config;
  config.local = policy_idx % 2 == 0 ? LocalPolicy::kEager : LocalPolicy::kLazy;
  config.global =
      policy_idx / 2 == 0 ? GlobalPolicy::kAll : GlobalPolicy::kAny;

  const char* kinds[] = {"mwa", "torus", "hwa", "twa"};
  auto sched = sched::make_scheduler(kinds[sched_idx], 16);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, config);
  const auto m1 = engine.run(trace);

  // Conservation and accounting.
  EXPECT_EQ(m1.num_tasks, trace.size()) << shape.name;
  EXPECT_EQ(m1.total_busy_ns, m1.sequential_ns) << shape.name;
  EXPECT_EQ(m1.total_busy_ns + m1.total_overhead_ns + m1.total_idle_ns,
            m1.makespan_ns * m1.num_nodes)
      << shape.name;
  EXPECT_GE(m1.total_idle_ns, 0) << shape.name;
  EXPECT_GE(m1.total_overhead_ns, 0) << shape.name;

  // The measured efficiency cannot beat the trace's parallelism bound.
  EXPECT_LE(m1.efficiency(), trace.optimal_efficiency(16) + 1e-9)
      << shape.name;

  // Determinism.
  const auto m2 = engine.run(trace);
  EXPECT_EQ(m1.makespan_ns, m2.makespan_ns) << shape.name;
  EXPECT_EQ(m1.nonlocal_tasks, m2.nonlocal_tasks) << shape.name;
  EXPECT_EQ(m1.system_phases, m2.system_phases) << shape.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RipsPropertySweep,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4),
                       ::testing::Range(0, 4)),
    sweep_name);

// --- Replay golden digests -------------------------------------------------
// A seeded matrix of runs whose Perfetto trace JSON and full RunMetrics are
// hashed and compared against digests recorded from the task-by-task
// replay the engine used before run-based replay. Any change to which task
// lands where, in what queue order, or how often a move is counted shows
// up as a different trace or metrics digest.

struct GoldenCase {
  const char* name;
  i32 nodes;
  const char* scheduler;
  bool weighted;
  bool lazy;
  bool any;
  bool lifo;
  i32 jobs;      // > 1: merge that many synthetic traces with a job map
  i32 segments;  // synchronization segments of each trace
  i32 roots;
  i32 faults;    // 0 none, 1 crashes only, 2 crashes + slowdowns + drops
  const char* digest;
};

u64 fnv1a(u64 h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string metrics_text(const sim::RunMetrics& m) {
  std::string s;
  const auto add = [&s](const char* key, i64 v) {
    s += key;
    s += '=';
    s += std::to_string(v);
    s += ';';
  };
  add("nodes", m.num_nodes);
  add("tasks", static_cast<i64>(m.num_tasks));
  add("nonlocal", static_cast<i64>(m.nonlocal_tasks));
  add("messages", static_cast<i64>(m.messages));
  add("phases", static_cast<i64>(m.system_phases));
  add("migrated", static_cast<i64>(m.tasks_migrated));
  add("makespan", m.makespan_ns);
  add("busy", m.total_busy_ns);
  add("overhead", m.total_overhead_ns);
  add("idle", m.total_idle_ns);
  add("sequential", m.sequential_ns);
  add("fast_measure", m.used_fast_measure ? 1 : 0);
  add("crashes", static_cast<i64>(m.crashes));
  add("recovery_phases", static_cast<i64>(m.recovery_phases));
  add("reinjected", static_cast<i64>(m.tasks_reinjected));
  add("reexecuted", static_cast<i64>(m.tasks_reexecuted));
  add("dropped", static_cast<i64>(m.dropped_messages));
  add("retries", static_cast<i64>(m.message_retries));
  add("lost_work", m.lost_work_ns);
  add("recovery_time", m.recovery_time_ns);
  for (const sim::JobMetrics& j : m.jobs) {
    s += j.name + ':';
    add("tasks", static_cast<i64>(j.tasks));
    add("nonlocal", static_cast<i64>(j.nonlocal_tasks));
    add("migrated", static_cast<i64>(j.tasks_migrated));
    add("work", j.work_ns);
    add("done", j.completion_ns);
  }
  return s;
}

std::string golden_digest(const GoldenCase& gc, bool* monitors_ok) {
  apps::SyntheticConfig shape;
  shape.num_roots = gc.roots;
  shape.num_segments = gc.segments;
  shape.spawn_prob = 0.6;
  shape.max_depth = 4;
  shape.max_branch = 4;
  shape.work_model = 2;
  const u64 seed = fnv1a(0xCBF29CE484222325ULL, gc.name);

  apps::TaskTrace trace;
  std::vector<i32> job_of;
  std::vector<apps::TaskTrace> parts;
  if (gc.jobs > 1) {
    std::vector<std::pair<std::string, const apps::TaskTrace*>> named;
    parts.reserve(static_cast<size_t>(gc.jobs));
    for (i32 j = 0; j < gc.jobs; ++j) {
      apps::SyntheticConfig c = shape;
      c.num_roots = gc.roots / gc.jobs + 7 * j;
      c.work_model = j % 4;
      parts.push_back(
          apps::build_synthetic_trace(c, seed + static_cast<u64>(j)));
    }
    for (i32 j = 0; j < gc.jobs; ++j) {
      named.emplace_back("job" + std::to_string(j),
                         &parts[static_cast<size_t>(j)]);
    }
    apps::MergedJobs merged = apps::merge_jobs(named);
    trace = std::move(merged.trace);
    job_of.assign(merged.owner.begin(), merged.owner.end());
  } else {
    trace = apps::build_synthetic_trace(shape, seed);
  }

  RipsConfig config;
  config.weighted = gc.weighted;
  config.local = gc.lazy ? LocalPolicy::kLazy : LocalPolicy::kEager;
  config.global = gc.any ? GlobalPolicy::kAny : GlobalPolicy::kAll;
  config.lifo_execution = gc.lifo;
  auto sched = sched::make_scheduler(gc.scheduler, gc.nodes);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  RipsEngine engine(*sched, cost, config);
  if (gc.jobs > 1) engine.set_job_map(&job_of, gc.jobs);

  // The fault horizon comes from a fault-free run of the same engine.
  sim::FaultPlan plan;
  if (gc.faults > 0) {
    const sim::RunMetrics base = engine.run(trace);
    sim::FaultSpec spec;
    spec.horizon_ns = base.makespan_ns;
    spec.crash_mtbf_ns = static_cast<double>(base.makespan_ns) / 3.0;
    spec.max_crashes = 3;
    if (gc.faults > 1) {
      spec.slowdown_mtbf_ns = static_cast<double>(base.makespan_ns) / 4.0;
      spec.slowdown_factor = 3.0;
      spec.slowdown_duration_ns = base.makespan_ns / 8;
      spec.drop_prob = 0.05;
    }
    plan = sim::FaultPlan::generate(seed, gc.nodes, spec);
    engine.set_fault_plan(&plan);
  }

  obs::TraceSession session(gc.nodes);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  o.trace = &session;
  o.monitor = &monitor;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run(trace);
  *monitors_ok = monitor.ok();

  u64 h = fnv1a(0xCBF29CE484222325ULL, session.to_json());
  h = fnv1a(h, "|");
  h = fnv1a(h, metrics_text(m));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// name, nodes, scheduler, weighted, lazy, any, lifo, jobs, segments, roots,
// faults, digest
const GoldenCase kGolden[] = {
    {"count-lazy-any-fifo-16", 16, "mwa", false, true, true, false, 1, 1, 60, 0, "a2b34b4467ae5f81"},
    {"count-eager-all-fifo-64", 64, "mwa", false, false, false, false, 1, 1, 120, 0, "35192d48a31b76b3"},
    {"count-lazy-any-lifo-4", 4, "mwa", false, true, true, true, 1, 1, 40, 0, "6b877e6bb74e0cdd"},
    {"count-eager-any-lifo-256", 256, "mwa", false, false, true, true, 1, 1, 300, 0, "be7f5d9e38ad4bb4"},
    {"count-lazy-all-segments-32", 32, "mwa", false, true, false, false, 1, 4, 50, 0, "bdc437b5539f60da"},
    {"count-eager-any-torus-16", 16, "torus", false, false, true, false, 1, 1, 80, 0, "c1badf06eec54c09"},
    {"weighted-lazy-any-fifo-16", 16, "mwa", true, true, true, false, 1, 1, 60, 0, "7962cacb8e085f0c"},
    {"weighted-eager-all-lifo-64", 64, "mwa", true, false, false, true, 1, 3, 90, 0, "98711d4ef55d93f6"},
    {"weighted-eager-any-fifo-256", 256, "mwa", true, false, true, false, 1, 1, 300, 0, "e203e0547c666ea8"},
    {"jobs-count-lazy-any-16", 16, "mwa", false, true, true, false, 3, 1, 90, 0, "3871a0be4e642076"},
    {"jobs-count-eager-all-lifo-64", 64, "mwa", false, false, false, true, 4, 1, 160, 0, "d54dde4828a32502"},
    {"jobs-weighted-eager-any-32", 32, "mwa", true, false, true, false, 3, 1, 90, 0, "8a53e851b14597a3"},
    {"crash-count-lazy-any-16", 16, "mwa", false, true, true, false, 1, 1, 80, 1, "3b4ab93cc09a2e70"},
    {"crash-count-eager-all-64", 64, "mwa", false, false, false, false, 1, 2, 120, 1, "21e25c74c215a38b"},
    {"crash-weighted-eager-any-16", 16, "mwa", true, false, true, false, 1, 1, 80, 1, "05973127296d8b7b"},
    {"faults-count-eager-any-lifo-32", 32, "mwa", false, false, true, true, 1, 1, 100, 2, "925c128be101e4d9"},
    {"faults-jobs-count-lazy-any-64", 64, "mwa", false, true, true, false, 3, 1, 150, 2, "07f8998abc728064"},
};

TEST(RipsReplayGolden, TraceAndMetricsDigestsMatchRecordedReplay) {
  std::string actual_table;
  for (const GoldenCase& gc : kGolden) {
    bool monitors_ok = false;
    const std::string digest = golden_digest(gc, &monitors_ok);
    EXPECT_TRUE(monitors_ok) << gc.name;
    EXPECT_EQ(digest, gc.digest) << gc.name;
    actual_table += std::string(gc.name) + " " + digest + "\n";
  }
  if (HasFailure()) std::printf("actual digests:\n%s", actual_table.c_str());
}

}  // namespace
}  // namespace rips::core
