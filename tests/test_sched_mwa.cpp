// Mesh Walking Algorithm property tests — the paper's Theorems 1-2 and
// Lemma 2 enforced over thousands of randomized load distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "flow/mincost_flow.hpp"
#include "sched/mwa.hpp"
#include "sched/scheduler.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace rips::sched {
namespace {

std::vector<i64> random_load(i32 n, i64 mean, Rng& rng) {
  std::vector<i64> load(static_cast<size_t>(n));
  for (auto& w : load) w = static_cast<i64>(rng.next_below(2 * mean + 1));
  return load;
}

i64 sum_of(const std::vector<i64>& v) {
  return std::accumulate(v.begin(), v.end(), i64{0});
}

struct MeshCase {
  i32 rows;
  i32 cols;
  i64 mean;
};

class MwaProperties : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MwaProperties, Theorem1_BalanceWithinOne) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(1000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    const auto load = random_load(rows * cols, mean, rng);
    const auto result = mwa.schedule(load);
    // Conservation.
    EXPECT_EQ(sum_of(result.new_load), sum_of(load));
    // Theorem 1: max difference of one, and exactly the canonical quota.
    const auto quota = quota_for(sum_of(load), rows * cols);
    EXPECT_EQ(result.new_load, quota);
  }
}

TEST_P(MwaProperties, Theorem2_LocalityIsOptimal) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(2000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    auto load = random_load(rows * cols, mean, rng);
    // Make the total divisible by N (the theorem's exact regime).
    const i64 n = rows * cols;
    load[0] += (n - sum_of(load) % n) % n;
    const auto quota = quota_for(sum_of(load), rows * cols);
    const auto result = mwa.schedule(load);
    const auto replay = replay_transfers(load, result.transfers);
    EXPECT_EQ(replay.final_load, quota);
    EXPECT_EQ(replay.nonlocal_tasks, min_nonlocal_tasks(load, quota))
        << rows << "x" << cols << " trial " << trial;
  }
}

TEST_P(MwaProperties, StepBound_3TimesN1PlusN2) {
  const auto [rows, cols, mean] = GetParam();
  Mwa mwa(topo::Mesh{rows, cols});
  Rng rng(3000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 50; ++trial) {
    const auto result = mwa.schedule(random_load(rows * cols, mean, rng));
    EXPECT_LE(result.comm_steps, 3 * (rows + cols));
    EXPECT_EQ(result.comm_steps, result.info_steps + result.transfer_steps);
  }
}

TEST_P(MwaProperties, TransfersAreLinkLocalAndBacked) {
  const auto [rows, cols, mean] = GetParam();
  topo::Mesh mesh{rows, cols};
  Mwa mwa(mesh);
  Rng rng(4000 + static_cast<u64>(rows * 131 + cols * 7 + mean));
  for (int trial = 0; trial < 20; ++trial) {
    const auto load = random_load(rows * cols, mean, rng);
    const auto result = mwa.schedule(load);
    i64 hops = 0;
    for (const Transfer& tr : result.transfers) {
      EXPECT_EQ(mesh.distance(tr.from, tr.to), 1);
      EXPECT_GT(tr.count, 0);
      hops += tr.count;
    }
    EXPECT_EQ(hops, result.task_hops);
    // replay_transfers CHECKs that every transfer is backed by holdings.
    (void)replay_transfers(load, result.transfers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndMeans, MwaProperties,
    ::testing::Values(MeshCase{1, 1, 5}, MeshCase{1, 8, 5}, MeshCase{8, 1, 5},
                      MeshCase{2, 2, 3}, MeshCase{4, 2, 2}, MeshCase{4, 4, 10},
                      MeshCase{8, 4, 2}, MeshCase{8, 4, 100},
                      MeshCase{8, 8, 20}, MeshCase{16, 8, 5},
                      MeshCase{3, 5, 7}, MeshCase{5, 3, 50},
                      MeshCase{16, 16, 10}, MeshCase{2, 8, 1},
                      MeshCase{7, 7, 13}, MeshCase{1, 16, 4}));

TEST(Mwa, AllZeroLoadIsNoop) {
  Mwa mwa(topo::Mesh{4, 4});
  const auto result = mwa.schedule(std::vector<i64>(16, 0));
  EXPECT_TRUE(result.transfers.empty());
  EXPECT_EQ(result.task_hops, 0);
  EXPECT_EQ(sum_of(result.new_load), 0);
}

TEST(Mwa, AlreadyBalancedMovesNothing) {
  Mwa mwa(topo::Mesh{4, 8});
  const auto result = mwa.schedule(std::vector<i64>(32, 7));
  EXPECT_TRUE(result.transfers.empty());
  EXPECT_EQ(result.task_hops, 0);
}

TEST(Mwa, SingleHotNodeSpreadsEverywhere) {
  Mwa mwa(topo::Mesh{4, 4});
  std::vector<i64> load(16, 0);
  load[5] = 160;
  const auto result = mwa.schedule(load);
  for (i64 w : result.new_load) EXPECT_EQ(w, 10);
  // Exactly 150 tasks leave their origin.
  const auto replay = replay_transfers(load, result.transfers);
  EXPECT_EQ(replay.nonlocal_tasks, 150);
}

TEST(Mwa, RemainderGoesToLowestIds) {
  Mwa mwa(topo::Mesh{2, 2});
  const auto result = mwa.schedule({7, 0, 0, 0});
  EXPECT_EQ(result.new_load, (std::vector<i64>{2, 2, 2, 1}));
}

TEST(Mwa, Lemma2_OptimalCostUpToFourProcessors) {
  // On <= 4 processors MWA minimizes the link cost sum e_k (Lemma 2):
  // exhaustively compare against the min-cost-flow optimum.
  for (const MeshCase shape : {MeshCase{2, 2, 0}, MeshCase{1, 4, 0},
                               MeshCase{4, 1, 0}, MeshCase{2, 1, 0}}) {
    topo::Mesh mesh{shape.rows, shape.cols};
    Mwa mwa(mesh);
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
      auto load = random_load(shape.rows * shape.cols, 6, rng);
      const auto result = mwa.schedule(load);
      const auto opt =
          flow::optimal_balance_cost(mesh, load, quota_for(sum_of(load),
                                                           mesh.size()));
      EXPECT_EQ(result.task_hops, opt.total_cost)
          << mesh.name() << " trial " << trial;
    }
  }
}

TEST(Mwa, Lemma2_ExhaustiveOn2x2) {
  // Every load vector in {0..5}^4 on the 2x2 mesh: MWA's link cost must
  // equal the min-cost-flow optimum (Lemma 2, exhaustively).
  topo::Mesh mesh{2, 2};
  Mwa mwa(mesh);
  for (i64 a = 0; a <= 5; ++a) {
    for (i64 b = 0; b <= 5; ++b) {
      for (i64 c = 0; c <= 5; ++c) {
        for (i64 d = 0; d <= 5; ++d) {
          const std::vector<i64> load{a, b, c, d};
          const auto result = mwa.schedule(load);
          const auto opt = flow::optimal_balance_cost(
              mesh, load, quota_for(a + b + c + d, 4));
          ASSERT_EQ(result.task_hops, opt.total_cost)
              << a << "," << b << "," << c << "," << d;
        }
      }
    }
  }
}

TEST(Mwa, NeverBeatsTheFlowOptimum) {
  // Sanity direction of Figure 4: C_MWA >= C_OPT always.
  topo::Mesh mesh{4, 4};
  Mwa mwa(mesh);
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    auto load = random_load(16, 10, rng);
    const auto result = mwa.schedule(load);
    const auto opt = flow::optimal_balance_cost(
        mesh, load, quota_for(sum_of(load), 16));
    EXPECT_GE(result.task_hops, opt.total_cost);
  }
}

TEST(Mwa, DeterministicAcrossCalls) {
  Mwa mwa(topo::Mesh{8, 4});
  Rng rng(9);
  const auto load = random_load(32, 50, rng);
  const auto a = mwa.schedule(load);
  const auto b = mwa.schedule(load);
  EXPECT_EQ(a.new_load, b.new_load);
  EXPECT_EQ(a.task_hops, b.task_hops);
  EXPECT_EQ(a.comm_steps, b.comm_steps);
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].from, b.transfers[i].from);
    EXPECT_EQ(a.transfers[i].to, b.transfers[i].to);
    EXPECT_EQ(a.transfers[i].count, b.transfers[i].count);
  }
}

// --- Step-5 wavefront equivalence ----------------------------------------
// Reference: MWA step 5 as a full scan of every boundary in every round,
// O(n2 * rounds) per row. Steps 1-4 are taken from the scheduler's own
// result (its vertical transfers come first in the plan), so the
// comparison isolates the wavefront evaluation of step 5.
ScheduleResult reference_schedule(const topo::Mesh& mesh,
                                  const std::vector<i64>& load,
                                  const ScheduleResult& actual) {
  const i32 n1 = mesh.rows();
  const i32 n2 = mesh.cols();
  ScheduleResult ref;
  ref.new_load = load;
  ref.info_steps = 2 * (n1 + n2);
  i32 step4_rounds = 0;
  for (const Transfer& tr : actual.transfers) {
    if (mesh.row_of(tr.from) == mesh.row_of(tr.to)) break;
    ref.new_load[static_cast<size_t>(tr.from)] -= tr.count;
    ref.new_load[static_cast<size_t>(tr.to)] += tr.count;
    ref.transfers.push_back(tr);
    step4_rounds = std::max(step4_rounds, tr.step);
  }
  const std::vector<i64> quota =
      quota_for(sum_of(load), static_cast<i32>(load.size()));
  auto q = [&](i32 i, i32 j) { return quota[static_cast<size_t>(i * n2 + j)]; };

  i32 step5_rounds = 0;
  for (i32 i = 0; i < n1; ++i) {
    std::vector<i64> flow(static_cast<size_t>(n2), 0);
    i64 prefix = 0;
    for (i32 b = 1; b < n2; ++b) {
      prefix += ref.new_load[static_cast<size_t>(i * n2 + b - 1)] - q(i, b - 1);
      flow[static_cast<size_t>(b)] = prefix;
    }
    std::vector<i64> hold(ref.new_load.begin() + i * n2,
                          ref.new_load.begin() + (i + 1) * n2);
    i32 round = 0;
    bool pending = true;
    while (pending) {
      pending = false;
      ++round;
      EXPECT_LE(round, n2 + 1);
      if (round > n2 + 1) break;
      std::vector<i64> reserved(static_cast<size_t>(n2), 0);
      std::vector<Transfer> batch;
      for (i32 b = 1; b < n2; ++b) {
        i64& f = flow[static_cast<size_t>(b)];
        if (f == 0) continue;
        const i32 sender = f > 0 ? b - 1 : b;
        const i32 receiver = f > 0 ? b : b - 1;
        const i64 avail = std::max<i64>(
            0, hold[static_cast<size_t>(sender)] -
                   reserved[static_cast<size_t>(sender)] - q(i, sender));
        const i64 amount = std::min(std::abs(f), avail);
        if (amount > 0) {
          reserved[static_cast<size_t>(sender)] += amount;
          batch.push_back({mesh.at(i, sender), mesh.at(i, receiver), amount,
                           step4_rounds + round});
          f -= f > 0 ? amount : -amount;
        }
        if (f != 0) pending = true;
      }
      for (const Transfer& tr : batch) {
        hold[static_cast<size_t>(mesh.col_of(tr.from))] -= tr.count;
        hold[static_cast<size_t>(mesh.col_of(tr.to))] += tr.count;
        ref.transfers.push_back(tr);
      }
    }
    step5_rounds = std::max(step5_rounds, round - 1);
    std::copy(hold.begin(), hold.end(), ref.new_load.begin() + i * n2);
  }
  ref.transfer_steps = step4_rounds + step5_rounds;
  for (const Transfer& tr : ref.transfers) ref.task_hops += tr.count;
  ref.comm_steps = ref.info_steps + ref.transfer_steps;
  return ref;
}

void expect_same_schedule(const ScheduleResult& got, const ScheduleResult& ref,
                          const std::string& what) {
  EXPECT_EQ(got.new_load, ref.new_load) << what;
  EXPECT_EQ(got.comm_steps, ref.comm_steps) << what;
  EXPECT_EQ(got.info_steps, ref.info_steps) << what;
  EXPECT_EQ(got.transfer_steps, ref.transfer_steps) << what;
  EXPECT_EQ(got.task_hops, ref.task_hops) << what;
  ASSERT_EQ(got.transfers.size(), ref.transfers.size()) << what;
  for (size_t i = 0; i < got.transfers.size(); ++i) {
    const Transfer& a = got.transfers[i];
    const Transfer& b = ref.transfers[i];
    ASSERT_TRUE(a.from == b.from && a.to == b.to && a.count == b.count &&
                a.step == b.step)
        << what << " transfer " << i << ": got " << a.from << "->" << a.to
        << " x" << a.count << " @" << a.step << ", want " << b.from << "->"
        << b.to << " x" << b.count << " @" << b.step;
  }
}

TEST(MwaStep5Wavefront, MatchesFullScanReference) {
  const std::pair<i32, i32> shapes[] = {{1, 1}, {1, 9},  {1, 64}, {9, 1},
                                        {2, 2}, {8, 4},  {4, 8},  {16, 16},
                                        {256, 256}};
  Rng rng(424242);
  for (const auto& [rows, cols] : shapes) {
    const topo::Mesh mesh{rows, cols};
    Mwa mwa(mesh);
    const i32 n = rows * cols;
    const int trials = n >= 4096 ? 2 : 40;
    for (int trial = 0; trial < trials; ++trial) {
      for (int kind = 0; kind < 3; ++kind) {
        std::vector<i64> load(static_cast<size_t>(n), 0);
        if (kind == 0) {  // random dense
          load = random_load(n, 1 + static_cast<i64>(rng.next_below(20)), rng);
        } else if (kind == 1) {  // sparse: few loaded nodes, most empty
          const i32 hot = 1 + static_cast<i32>(rng.next_below(
                                  static_cast<u64>(std::max(1, n / 8))));
          for (i32 h = 0; h < hot; ++h) {
            load[rng.next_below(static_cast<u64>(n))] +=
                static_cast<i64>(rng.next_below(200));
          }
        } else {  // a single hot node
          load[rng.next_below(static_cast<u64>(n))] =
              static_cast<i64>(rng.next_below(static_cast<u64>(4 * n))) + 1;
        }
        const ScheduleResult& got = mwa.schedule(load);
        const ScheduleResult ref = reference_schedule(mesh, load, got);
        expect_same_schedule(got, ref,
                             std::to_string(rows) + "x" + std::to_string(cols) +
                                 " kind " + std::to_string(kind) + " trial " +
                                 std::to_string(trial));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(QuotaFor, SplitsRemainderOverFirstNodes) {
  EXPECT_EQ(quota_for(10, 4), (std::vector<i64>{3, 3, 2, 2}));
  EXPECT_EQ(quota_for(0, 3), (std::vector<i64>{0, 0, 0}));
  EXPECT_EQ(quota_for(7, 1), (std::vector<i64>{7}));
}

TEST(MinNonlocalTasks, CountsUnderloadOnly) {
  EXPECT_EQ(min_nonlocal_tasks({5, 1, 0}, {2, 2, 2}), 3);
  EXPECT_EQ(min_nonlocal_tasks({2, 2, 2}, {2, 2, 2}), 0);
}

TEST(ReplayTransfers, ForwardsForeignTasksFirst) {
  // Node 1 relays: it receives 2 tasks from node 0 and sends 2 to node 2.
  // Forwarding the received (foreign) tasks keeps its own tasks local, so
  // only 2 tasks end up non-local.
  const std::vector<i64> load{2, 2, 0};
  const std::vector<Transfer> plan{{0, 1, 2, 1}, {1, 2, 2, 2}};
  const auto replay = replay_transfers(load, plan);
  EXPECT_EQ(replay.final_load, (std::vector<i64>{0, 2, 2}));
  EXPECT_EQ(replay.nonlocal_tasks, 2);
  EXPECT_EQ(replay.task_hops, 4);
}

}  // namespace
}  // namespace rips::sched
