// Steady-state allocation regression tests (docs/PERFORMANCE.md, Scaling).
//
// This binary replaces the global allocator with a counting shim so tests
// can assert the engines' hot loops stop touching the heap once their
// arenas are warm. The contract under test:
//
//   * RipsEngine: with monitors detached and phase snapshots disabled, a
//     mid-run system phase (and the user phase leading into it) performs
//     ZERO heap allocations on a repeat run — every vector the phase loop
//     touches is a reused member arena.
//   * DynamicEngine: the per-steal message path recycles task buffers, so
//     a steady-state window of a repeat run is likewise allocation-free.
//
// "Repeat run" matters: the first run grows the arenas to their high-water
// marks; the contract is about the steady state those arenas enable, which
// is what a long trace spends >99% of its phases in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/synthetic.hpp"
#include "balance/engine.hpp"
#include "balance/random_alloc.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "topo/topology.hpp"

// ---------------------------------------------------------------------------
// Counting allocator shim. Test-binary-local: linking these definitions
// into the test executable overrides the global operator new/delete for
// everything in the process (gtest included), which is exactly what makes
// the counter trustworthy — nothing can allocate around it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<unsigned long long> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

namespace rips::core {
namespace {

sim::CostModel test_cost() {
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  return cost;
}

apps::TaskTrace alloc_trace(u64 target_tasks) {
  return apps::build_synthetic_trace(apps::scale_config(target_tasks),
                                     /*seed=*/7);
}

/// Phase-probe context: one allocator-counter reading per system phase.
/// The marks vector is reserved up front so recording a mark never
/// allocates (which would poison the very windows being measured).
struct PhaseMarks {
  std::vector<unsigned long long> marks;
  static void record(void* ctx, u64 /*phase_idx*/) {
    static_cast<PhaseMarks*>(ctx)->marks.push_back(
        g_allocs.load(std::memory_order_relaxed));
  }
};

// The acceptance test of the scaling PR: with monitors detached and phase
// snapshots off, a warm RipsEngine performs ZERO heap allocations across
// every steady-state window (user phase + following system phase) of a
// repeat run. The first and last windows are excluded: the first includes
// segment-root release, the last includes end-of-run accounting.
TEST(AllocFree, RipsEngineSteadyStatePhasesAllocateNothing) {
  // Many nodes relative to the trace: frequent drains mean frequent
  // system phases, which is what gives the test its windows (~19 with
  // this trace/mesh pairing).
  const apps::TaskTrace trace = alloc_trace(20000);
  topo::Mesh mesh(16, 16);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  engine.set_phase_snapshots(false);

  PhaseMarks probe;
  probe.marks.reserve(1 << 16);
  engine.set_phase_probe(&PhaseMarks::record, &probe);

  // Run 1 grows every arena to its high-water mark.
  const sim::RunMetrics warm = engine.run(trace);
  ASSERT_EQ(warm.num_tasks, trace.size());
  const size_t phases = probe.marks.size();
  ASSERT_GE(phases, 4u) << "trace too small to expose steady-state windows";

  // Run 2 is the measured run.
  probe.marks.clear();
  const sim::RunMetrics metrics = engine.run(trace);
  ASSERT_EQ(metrics.num_tasks, trace.size());
  ASSERT_EQ(probe.marks.size(), phases) << "repeat run must be deterministic";

  for (size_t i = 1; i + 1 < phases; ++i) {
    EXPECT_EQ(probe.marks[i] - probe.marks[i - 1], 0u)
        << "heap allocation in steady-state window ending at phase " << i;
  }
}

// The invariant monitors read the replay's own collected-task array as
// their begin-of-phase snapshot, so attaching them must not bring back
// per-phase allocation either: same steady-state contract, monitor on.
TEST(AllocFree, MonitoredSteadyStatePhasesAllocateNothing) {
  const apps::TaskTrace trace = alloc_trace(20000);
  topo::Mesh mesh(16, 16);
  sched::Mwa mwa(mesh);
  RipsEngine engine(mwa, test_cost(), RipsConfig{});
  engine.set_phase_snapshots(false);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  o.monitor = &monitor;
  engine.set_obs(o);

  PhaseMarks probe;
  probe.marks.reserve(1 << 16);
  engine.set_phase_probe(&PhaseMarks::record, &probe);

  const sim::RunMetrics warm = engine.run(trace);
  ASSERT_EQ(warm.num_tasks, trace.size());
  ASSERT_TRUE(monitor.ok()) << monitor.report();
  const size_t phases = probe.marks.size();
  ASSERT_GE(phases, 4u) << "trace too small to expose steady-state windows";

  probe.marks.clear();
  const sim::RunMetrics metrics = engine.run(trace);
  ASSERT_EQ(metrics.num_tasks, trace.size());
  ASSERT_EQ(probe.marks.size(), phases) << "repeat run must be deterministic";
  EXPECT_TRUE(monitor.ok()) << monitor.report();

  for (size_t i = 1; i + 1 < phases; ++i) {
    EXPECT_EQ(probe.marks[i] - probe.marks[i - 1], 0u)
        << "heap allocation in monitored steady-state window ending at phase "
        << i;
  }
}

// The drain-sum fast path and the original O(subtree) measuring pass must
// be observationally identical — same metrics, same phase count. The fast
// path is a pure strength reduction, never a behavior change.
TEST(AllocFree, FastAndFullMeasurePassesAgreeExactly) {
  const apps::TaskTrace trace = alloc_trace(3000);
  topo::Mesh mesh(4, 4);
  for (const LocalPolicy local : {LocalPolicy::kLazy, LocalPolicy::kEager}) {
    RipsConfig config;
    config.local = local;

    sched::Mwa mwa_fast(mesh);
    RipsEngine fast(mwa_fast, test_cost(), config);
    const sim::RunMetrics a = fast.run(trace);

    sched::Mwa mwa_full(mesh);
    RipsEngine full(mwa_full, test_cost(), config);
    full.set_full_measure_pass(true);
    const sim::RunMetrics b = full.run(trace);

    EXPECT_EQ(a.makespan_ns, b.makespan_ns) << config.name();
    EXPECT_EQ(a.total_busy_ns, b.total_busy_ns) << config.name();
    EXPECT_EQ(a.total_overhead_ns, b.total_overhead_ns) << config.name();
    EXPECT_EQ(a.total_idle_ns, b.total_idle_ns) << config.name();
    EXPECT_EQ(a.system_phases, b.system_phases) << config.name();
    EXPECT_EQ(a.nonlocal_tasks, b.nonlocal_tasks) << config.name();
  }
}

}  // namespace
}  // namespace rips::core

namespace rips::balance {
namespace {

/// Delegates to RandomAlloc while recording the allocator counter at every
/// spawn — the DynamicEngine equivalent of the RIPS phase probe.
class CountingRandom final : public Strategy {
 public:
  explicit CountingRandom(u64 seed) : inner_(seed) {}

  std::string name() const override { return inner_.name(); }
  void reset(DynamicEngine& engine) override { inner_.reset(engine); }
  void on_spawn(DynamicEngine& engine, NodeId node, TaskId task) override {
    marks.push_back(g_allocs.load(std::memory_order_relaxed));
    inner_.on_spawn(engine, node, task);
  }
  void on_message(DynamicEngine& engine, NodeId node,
                  const Message& msg) override {
    inner_.on_message(engine, node, msg);
  }

  std::vector<unsigned long long> marks;

 private:
  RandomAlloc inner_;
};

// The pooled message buffers make the dynamic engine's steal path
// allocation-free once warm: the middle third of a repeat run's spawns —
// each window spanning task execution, sends, deliveries and event-queue
// churn — must not touch the heap.
TEST(AllocFree, DynamicEngineSteadyWindowAllocatesNothing) {
  const apps::TaskTrace trace =
      apps::build_synthetic_trace(apps::scale_config(3000), /*seed=*/7);
  topo::Mesh mesh(4, 4);
  sim::CostModel cost;
  cost.ns_per_work = 2000.0;
  CountingRandom strategy(/*seed=*/0xC0FFEE);
  strategy.marks.reserve(2 * trace.size() + 16);
  DynamicEngine engine(mesh, cost, strategy);

  const sim::RunMetrics warm = engine.run(trace);
  ASSERT_EQ(warm.num_tasks, trace.size());
  const size_t spawns = strategy.marks.size();
  ASSERT_GE(spawns, 16u);

  strategy.marks.clear();
  const sim::RunMetrics metrics = engine.run(trace);
  ASSERT_EQ(metrics.num_tasks, trace.size());
  ASSERT_EQ(strategy.marks.size(), spawns)
      << "repeat run must be deterministic";

  const size_t lo = spawns / 3;
  const size_t hi = 2 * spawns / 3;
  EXPECT_EQ(strategy.marks[hi] - strategy.marks[lo], 0u)
      << "heap allocation in the steady-state spawn window [" << lo << ", "
      << hi << ")";
}

}  // namespace
}  // namespace rips::balance
