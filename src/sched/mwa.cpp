#include "sched/mwa.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace rips::sched {

namespace {

/// The eta/gamma recurrence of Figure 3, shared by the d- and u-vector
/// computations. `delta[k] = w[k] - q[k]` is the surplus at column k.
/// Fills `send` with per-column send amounts whose sum is exactly
/// `amount`; a column never sends more than max(0, delta[k]) (so sends are
/// physically backed by the sender's holdings and only surplus tasks leave
/// their node, which is what makes the algorithm locality-optimal).
void eta_gamma_sends(const std::vector<i64>& delta, i64 amount,
                     std::vector<i64>& send) {
  send.assign(delta.size(), 0);
  i64 eta = amount;  // tasks still to send out of this row
  i64 gamma = 0;     // unmet deficit of columns to the left
  for (size_t k = 0; k < delta.size(); ++k) {
    const i64 d = std::clamp(delta[k] - gamma, i64{0}, eta);
    send[k] = d;
    gamma -= delta[k] - d;
    eta -= d;
  }
  RIPS_CHECK_MSG(eta == 0, "row lacked surplus to satisfy its vertical quota");
}

}  // namespace

const ScheduleResult& Mwa::schedule(const std::vector<i64>& load) {
  const i32 n1 = mesh_.rows();
  const i32 n2 = mesh_.cols();
  const i32 n = n1 * n2;
  RIPS_CHECK(static_cast<i32>(load.size()) == n);

  ScheduleResult& out = result_;
  out.reset();

  // Working copy of per-node loads, indexed [row][col].
  auto w = [&](i32 i, i32 j) -> i64& {
    return out.new_load[static_cast<size_t>(i * n2 + j)];
  };
  out.new_load = load;

  // --- Steps 1-2: information collection.
  // Row scans, column scan-with-sum, broadcast of wavg/R, spread of s/t.
  // Serially we just compute the sums; the step cost is the paper's.
  i64 total = 0;
  std::vector<i64>& t = scratch_.t;  // t_i = sum of rows 0..i
  t.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    // Row-sum kernel: each row is a contiguous n2-wide slice of new_load.
    total += simd::sum_i64(&w(i, 0), static_cast<size_t>(n2));
    t[static_cast<size_t>(i)] = total;
  }
  out.info_steps += 2 * (n1 + n2);

  // --- Step 3: quotas.
  quota_into(total, n, scratch_.quota);
  const std::vector<i64>& quota = scratch_.quota;
  auto q = [&](i32 i, i32 j) -> i64 {
    return quota[static_cast<size_t>(i * n2 + j)];
  };
  const i64 wavg = total / n;
  const i64 remainder = total % n;
  // Row-accumulation quota Q_i = quota of the submesh rows 0..i.
  std::vector<i64>& big_q = scratch_.big_q;
  big_q.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    const i64 filled = static_cast<i64>(i + 1) * n2;
    big_q[static_cast<size_t>(i)] =
        wavg * filled + std::min<i64>(filled, remainder);
  }

  // y_i > 0: rows 0..i are overloaded and send y_i tasks to row i+1.
  // y_i < 0: rows 0..i are underloaded and receive |y_i| from row i+1.
  std::vector<i64>& y = scratch_.y;
  y.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    y[static_cast<size_t>(i)] = t[static_cast<size_t>(i)] - big_q[static_cast<size_t>(i)];
  }
  RIPS_CHECK(y[static_cast<size_t>(n1 - 1)] == 0);

  // --- Step 4: vertical balancing.
  // Downward cascade (rows with y_i > 0 send to row i+1). Row order
  // matters: receipts from row i-1 must land before row i computes its
  // d vector. The lock-step round of each send is the length of the
  // consecutive chain of sending rows that feeds it.
  std::vector<i64>& delta = scratch_.delta;
  delta.assign(static_cast<size_t>(n2), 0);
  i32 step4_down = 0;
  {
    i32 chain = 0;
    for (i32 i = 0; i + 1 < n1; ++i) {
      if (y[static_cast<size_t>(i)] > 0) {
        chain += 1;
        simd::sub_i64(&w(i, 0), &quota[static_cast<size_t>(i * n2)],
                      delta.data(), static_cast<size_t>(n2));
        const std::vector<i64>& d = scratch_.send;
        eta_gamma_sends(delta, y[static_cast<size_t>(i)], scratch_.send);
        for (i32 j = 0; j < n2; ++j) {
          const i64 amount = d[static_cast<size_t>(j)];
          if (amount == 0) continue;
          w(i, j) -= amount;
          w(i + 1, j) += amount;
          out.transfers.push_back(
              {mesh_.at(i, j), mesh_.at(i + 1, j), amount, chain});
        }
        step4_down = std::max(step4_down, chain);
      } else {
        chain = 0;
      }
    }
  }
  // Upward cascade (rows above row i are underloaded: y_{i-1} < 0, so row i
  // sends |y_{i-1}| up). Processed bottom-up so receipts from below land
  // first.
  i32 step4_up = 0;
  {
    i32 chain = 0;
    for (i32 i = n1 - 1; i >= 1; --i) {
      if (y[static_cast<size_t>(i - 1)] < 0) {
        chain += 1;
        simd::sub_i64(&w(i, 0), &quota[static_cast<size_t>(i * n2)],
                      delta.data(), static_cast<size_t>(n2));
        const std::vector<i64>& u = scratch_.send;
        eta_gamma_sends(delta, -y[static_cast<size_t>(i - 1)], scratch_.send);
        for (i32 j = 0; j < n2; ++j) {
          const i64 amount = u[static_cast<size_t>(j)];
          if (amount == 0) continue;
          w(i, j) -= amount;
          w(i - 1, j) += amount;
          out.transfers.push_back(
              {mesh_.at(i, j), mesh_.at(i - 1, j), amount, chain});
        }
        step4_up = std::max(step4_up, chain);
      } else {
        chain = 0;
      }
    }
  }
  const i32 step4_rounds = std::max(step4_down, step4_up);
  out.transfer_steps += step4_rounds;

  // Every row now holds exactly its row quota.
#ifndef NDEBUG
  for (i32 i = 0; i < n1; ++i) {
    i64 row_total = 0;
    i64 row_quota = 0;
    for (i32 j = 0; j < n2; ++j) {
      row_total += w(i, j);
      row_quota += q(i, j);
    }
    RIPS_DCHECK(row_total == row_quota);
  }
#endif

  // --- Step 5: horizontal balancing inside each row.
  // Net rightward flow across the boundary between columns b-1 and b is
  // z_b = sum_{k<b} (w - q). Transfers are executed in synchronous rounds
  // (a relay node can only forward what it already holds), which is what
  // bounds the step count by n2.
  //
  // Each round only evaluates the wavefront: round 1 every boundary with
  // pending flow, round k+1 the boundaries whose sender received tasks in
  // round k. That skips no transfer. A boundary still pending after a
  // round it was evaluated in has a sender whose surplus is exhausted, and
  // surplus only comes back through inflow, so until that sender receives
  // again every evaluation of its boundaries would move nothing. A row
  // costs O(n2 + transfers) instead of O(n2 * rounds).
  i32 step5_rounds = 0;
  std::vector<i64>& flow = scratch_.flow;          // flow[b], b>=1
  std::vector<i64>& hold = scratch_.hold;          // per-column holdings
  std::vector<i64>& reserved = scratch_.reserved;  // per-round sends
  std::vector<i32>& front = scratch_.front;
  std::vector<i32>& next_front = scratch_.next_front;
  std::vector<Transfer>& batch = scratch_.batch;
  reserved.assign(static_cast<size_t>(n2), 0);
  for (i32 i = 0; i < n1; ++i) {
    flow.assign(static_cast<size_t>(n2), 0);
    front.clear();
    i64 prefix = 0;
    for (i32 b = 1; b < n2; ++b) {
      prefix += w(i, b - 1) - q(i, b - 1);
      flow[static_cast<size_t>(b)] = prefix;
      if (prefix != 0) front.push_back(b);
    }
    hold.assign(&w(i, 0), &w(i, 0) + n2);
    size_t unsettled = front.size();

    i32 round = 0;
    do {
      ++round;
      RIPS_CHECK_MSG(round <= n2 + 1, "step 5 failed to settle in n2 rounds");
      // Decide all sends against start-of-round holdings.
      batch.clear();
      for (const i32 b : front) {
        i64& f = flow[static_cast<size_t>(b)];
        const i32 sender = f > 0 ? b - 1 : b;
        const i32 receiver = f > 0 ? b : b - 1;
        const i64 want = std::abs(f);
        // Surplus gating: a relay never dips below its own quota — it
        // waits for inflow instead. This is what makes the non-local task
        // count exactly the Theorem-2 minimum (a relay forwards received
        // tasks rather than evicting its own).
        const i64 avail =
            std::max<i64>(0, hold[static_cast<size_t>(sender)] -
                                 reserved[static_cast<size_t>(sender)] -
                                 q(i, sender));
        const i64 amount = std::min(want, avail);
        if (amount > 0) {
          reserved[static_cast<size_t>(sender)] += amount;
          batch.push_back({mesh_.at(i, sender), mesh_.at(i, receiver), amount,
                           step4_rounds + round});
          f -= f > 0 ? amount : -amount;
          if (f == 0) --unsettled;
        }
      }
      // Apply the round and queue the boundary each receiver sends over,
      // if any. Flows never change sign, so a column receiving over one
      // boundary can only send over its other one (and a column receiving
      // from both sides sends nothing). Receivers come out of the batch in
      // ascending column order, hence so does the next wavefront.
      next_front.clear();
      for (const Transfer& tr : batch) {
        const i32 from = mesh_.col_of(tr.from);
        const i32 to = mesh_.col_of(tr.to);
        hold[static_cast<size_t>(from)] -= tr.count;
        hold[static_cast<size_t>(to)] += tr.count;
        reserved[static_cast<size_t>(from)] = 0;
        out.transfers.push_back(tr);
        if (to >= 1 && flow[static_cast<size_t>(to)] < 0) {
          next_front.push_back(to);
        } else if (to + 1 < n2 && flow[static_cast<size_t>(to + 1)] > 0) {
          next_front.push_back(to + 1);
        }
      }
      front.swap(next_front);
    } while (unsettled > 0);
    // `round` counts the final round that settled the row; real rounds
    // are reported as round - 1.
    step5_rounds = std::max(step5_rounds, round - 1);
    std::copy(hold.begin(), hold.end(), &w(i, 0));
  }
  out.transfer_steps += step5_rounds;

  // Theorem 1: every node ends exactly at its quota.
  for (i32 k = 0; k < n; ++k) {
    RIPS_CHECK(out.new_load[static_cast<size_t>(k)] ==
               quota[static_cast<size_t>(k)]);
  }
  for (const Transfer& tr : out.transfers) out.task_hops += tr.count;
  out.comm_steps = out.info_steps + out.transfer_steps;
  return result_;
}

}  // namespace rips::sched
