// The host's current speed, read from a fixed reference kernel.
//
// The benchmark shares a host whose speed drifts over minutes: a fixed
// kernel timed in one process after another ran up to a quarter slower
// within three minutes, on every CPU alike, with no steal time reported.
// The batch workloads time this kernel after every engine run and scale
// their host times to the kernel's reference time, so that a figure moves
// with the program and much less with the host. The kernel is the
// benchmark's own code: a change to the program does not move it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the reference kernel once (~2 ms) and keeps its time.
  void sample();
  std::size_t samples() const { return times_.size(); }
  /// Median kernel time in seconds (0 before any sample).
  double median_s() const;
  /// The kernel's reference time over its median time here: a host time
  /// times this factor is the time at the reference speed (1 before any
  /// sample).
  double factor() const;

 private:
  std::vector<uint32_t> table_;
  std::vector<double> times_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench
