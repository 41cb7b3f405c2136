#include "host_speed.hpp"

#include "common.hpp"

namespace perfbench {

namespace {

/// The kernel's typical median time on the 4-vCPU Xeon VM (Sapphire
/// Rapids, gcc 12, RelWithDebInfo) the benchmark was written on, so that
/// scaled figures read like host times there.
constexpr double kReferenceS = 0.0020;

}  // namespace

HostSpeed::HostSpeed() : table_(1u << 14) {
  for (uint32_t i = 0; i < table_.size(); ++i) table_[i] = i * 2654435761u;
}

void HostSpeed::sample() {
  // A branchy integer loop over a 64 KB table: the core's own speed, which
  // is what the shared host takes away (the program's runs slowed down
  // with it; a cache-missing kernel overreacted to other tenants' traffic).
  const Clock::time_point t0 = Clock::now();
  uint64_t h = 1;
  const uint32_t mask = static_cast<uint32_t>(table_.size()) - 1;
  for (uint32_t k = 0; k < (1u << 18); ++k) {
    const uint32_t v = table_[static_cast<uint32_t>(h >> 20) & mask];
    if (v & 1) {
      h = h * 6364136223846793005ull + v;
    } else {
      h ^= (h >> 29) + v;
    }
    table_[k & mask] += static_cast<uint32_t>(h);
  }
  sink_ += h;
  times_.push_back(seconds_between(t0, Clock::now()));
}

double HostSpeed::median_s() const { return times_.empty() ? 0.0 : median(times_); }

double HostSpeed::factor() const { return times_.empty() ? 1.0 : kReferenceS / median_s(); }

}  // namespace perfbench
