// Mesh Walking Algorithm (paper Figure 3).
//
// Balances task counts over an n1 x n2 mesh in at most 3(n1 + n2)
// lock-step communication steps:
//   1. scan of the partial load vector along each row            (n2 steps)
//   2. scan-with-sum down the last column; total T, wavg, R      (n1 steps)
//      broadcast of wavg/R and spread of s/t along rows     (n1 + n2 steps)
//   3. local quota computation q_ij and row-accumulation quota Q_i
//   4. vertical balancing between adjacent rows (d/u vectors via the
//      eta/gamma recurrences)                                  (<= n1 steps)
//   5. horizontal balancing inside each row (z/v vectors)      (<= n2 steps)
//
// Guarantees (enforced as property tests):
//   Theorem 1 — final loads equal the quotas (difference at most one).
//   Theorem 2 — the number of non-local tasks is exactly
//               sum over underloaded nodes of (quota - load), the minimum.
//   Lemma 2  — for N <= 4 the link cost (sum e_k) is the optimum.
#pragma once

#include <vector>

#include "sched/scheduler.hpp"
#include "topo/topology.hpp"

namespace rips::sched {

class Mwa final : public ParallelScheduler {
 public:
  explicit Mwa(topo::Mesh mesh) : mesh_(mesh) {}

  const ScheduleResult& schedule(const std::vector<i64>& load) override;
  const topo::Topology& topology() const override { return mesh_; }
  std::string name() const override { return "mwa"; }

  const topo::Mesh& mesh() const { return mesh_; }

 private:
  topo::Mesh mesh_;

  // Reusable scratch arena: RIPS calls schedule() every system phase, and
  // the row/column working vectors are the same size every time — keeping
  // them as members turns a dozen allocations per phase into none after
  // the first call. Purely storage reuse; the computed values are
  // identical to freshly allocated vectors.
  struct Scratch {
    std::vector<i64> t;         // t_i prefix row sums
    std::vector<i64> quota;     // per-node quotas
    std::vector<i64> big_q;     // Q_i row-accumulation quotas
    std::vector<i64> y;         // vertical boundary flows
    std::vector<i64> delta;     // per-column surplus of the working row
    std::vector<i64> send;      // eta/gamma per-column send amounts
    std::vector<i64> flow;      // step-5 per-boundary pending flow
    std::vector<i64> hold;      // step-5 per-column holdings
    std::vector<i64> reserved;  // step-5 per-round reserved sends
    std::vector<i32> front;       // step-5 boundaries to evaluate
    std::vector<i32> next_front;  // step-5 wavefront of the next round
    std::vector<Transfer> batch;
  };
  Scratch scratch_;
  ScheduleResult result_;
};

}  // namespace rips::sched
