// Shared plumbing of the RIPS host-time benchmark: the host clock, the
// result line, the span log of the traced run, and small statistics.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using rips::i32;
using rips::i64;
using rips::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Stamped during static initialization, i.e. as close to the start of the
/// process as the program can observe: every cold set-up is timed from here.
Clock::time_point process_start();

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload's inputs, print the cold set-up time and exit: the
  /// batch workloads time their extra cold set-ups in such processes.
  bool setup_only = false;
  std::string out_dir = ".bench_out";  ///< spans and the daemon's socket
};

/// The result of one run: the status fields and the metrics of the mode
/// (end-to-end or per-layer). Names must be declared in main.cpp's tables.
class Report {
 public:
  explicit Report(bool per_layer);

  void set(const std::string& name, double value);
  /// Adds to a metric (per-layer counters and time sums).
  void add(const std::string& name, double value);
  /// Records a failed correctness check; the run then reports correct=false.
  void check(bool ok, const std::string& what);

  u64 attempted = 0;
  u64 failed = 0;
  bool correct() const { return check_failures_ == 0; }

  /// The final result line (one JSON object).
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
    bool set = false;
  };
  Entry& find(const std::string& name);

  std::vector<Entry> entries_;
  u64 check_failures_ = 0;
};

/// statistics.median semantics (mean of the two middle values).
double median(std::vector<double> v);
/// Geometric mean of positive values.
double geometric_mean(const std::vector<double>& v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

/// Spans of the traced run: name, start, end and causing span, kept in
/// memory and written out when the run ends. Times are seconds since
/// process_start().
class SpanLog {
 public:
  static constexpr i64 kNoParent = -1;

  i64 add(const char* name, Clock::time_point t0, Clock::time_point t1,
          i64 parent);
  void set_parent(i64 id, i64 parent) {
    spans_[static_cast<size_t>(id)].parent = parent;
  }
  /// Closes a span opened with t1 == t0 (so its children can name it).
  void set_end(i64 id, Clock::time_point t1);
  size_t size() const { return spans_.size(); }
  /// Appends another log's spans (their parent ids re-based).
  void append(const SpanLog& other);
  /// Sum over spans called `name` of their duration minus the time their
  /// child spans cover.
  double self_time(const std::string& name) const;
  bool write_tsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double t0;
    double t1;
    i64 parent;
  };
  std::vector<Span> spans_;
};

/// Peak resident set of this process in MB (getrusage maxrss).
double peak_rss_mb_self();

/// Run one workload, filling `report`; throw on errors that leave no result.
void run_batch(const Options& opts, Report& report);
void run_serve_closed(const Options& opts, Report& report);

}  // namespace perfbench
