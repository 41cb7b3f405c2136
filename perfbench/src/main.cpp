// rips_perfbench — host-time benchmark of the RIPS simulator (README.md).
//
//   rips_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: paper-table1, scale-sparse, faults-dense (batch engine runs
// driven from this process) and serve-closed (the rips_served daemon driven
// over its socket). With --trace 0 the last stdout line carries every
// end-to-end metric; with --trace 1 every per-layer metric (layers a
// workload does not exercise read 0). Progress and check failures go to
// stderr.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_tasks_per_s", "tasks/s"},
    {"peak_rss_mb", "MB"},
    {"efficiency", "ratio"},
    {"sim_makespan_s", "s"},
    {"nonlocal_tasks", "tasks"},
    {"jobs_per_s", "jobs/s"},
    {"job_p50_ms", "ms"},
    {"job_p99_ms", "ms"},
    {"submit_p50_ms", "ms"},
    {"submit_p99_ms", "ms"},
};

// Must match BENCHMARK.json's "per_layer" list.
const MetricDef kPerLayer[] = {
    {"apps.queens_build_s", "s"},
    {"apps.ida_build_s", "s"},
    {"apps.gromos_build_s", "s"},
    {"apps.synthetic_build_s", "s"},
    {"apps.trace_tasks", "count"},
    {"balance.random_s", "s"},
    {"balance.gradient_s", "s"},
    {"balance.rid_s", "s"},
    {"rips.run_init_s", "s"},
    {"rips.system_phase_s", "s"},
    {"rips.user_phase_s", "s"},
    {"rips.finalize_s", "s"},
    {"rips.system_phases", "count"},
    {"rips.user_phases", "count"},
    {"rips.tasks_migrated", "count"},
    {"rips.full_measure_runs", "count"},
    {"rips.crashes", "count"},
    {"rips.tasks_reexecuted", "count"},
    {"sched.schedule_s", "s"},
    {"sched.schedule_calls", "count"},
    {"sched.transfers", "count"},
    {"sched.comm_steps", "count"},
    {"sched.active_node_share", "ratio"},
    {"obs.monitor_s", "s"},
    {"obs.export_s", "s"},
    {"coll.dropped_msgs", "count"},
    {"coll.retries", "count"},
    {"serve.parse_s", "s"},
    {"serve.job_build_s", "s"},
    {"serve.submit_rtt_s", "s"},
    {"serve.status_rtt_s", "s"},
    {"serve.status_polls", "count"},
    {"serve.tasks_executed", "count"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

void usage() {
  std::fprintf(stderr,
               "usage: rips_perfbench --workload "
               "{paper-table1,scale-sparse,faults-dense,serve-closed}\n"
               "  --seed N --seconds S --trace {0,1}\n");
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

Report::Report(bool per_layer) {
  if (per_layer) {
    // Layers a workload does not exercise report a measured 0.
    for (const MetricDef& d : kPerLayer) entries_.push_back({d.name, d.unit, 0.0, true});
  } else {
    for (const MetricDef& d : kEndToEnd) entries_.push_back({d.name, d.unit, 0.0, false});
  }
}

Report::Entry& Report::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::logic_error("metric not declared for this mode: " + name);
}

void Report::set(const std::string& name, double value) {
  Entry& e = find(name);
  e.value = value;
  e.set = true;
}

void Report::add(const std::string& name, double value) {
  Entry& e = find(name);
  e.value += value;
  e.set = true;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  if (check_failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Report::json() const {
  bool ok = correct();
  for (const Entry& e : entries_) {
    if (!e.set || !std::isfinite(e.value)) {
      std::fprintf(stderr, "metric %s was not measured\n", e.name.c_str());
      ok = false;
    }
  }
  std::string out = "{\"correct\": ";
  out += ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geometric_mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

i64 SpanLog::add(const char* name, Clock::time_point t0, Clock::time_point t1,
                 i64 parent) {
  spans_.push_back({name, seconds_between(g_process_start, t0),
                    seconds_between(g_process_start, t1), parent});
  return static_cast<i64>(spans_.size()) - 1;
}

void SpanLog::set_end(i64 id, Clock::time_point t1) {
  spans_[static_cast<size_t>(id)].t1 = seconds_between(g_process_start, t1);
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<i64>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

double SpanLog::self_time(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += spans_[i].t1 - spans_[i].t0 - child[i];
  }
  return total;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_s\tend_s\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%zu\t%lld\t%s\t%.9f\t%.9f\n", i,
                  static_cast<long long>(s.parent), s.name, s.t0, s.t1);
    out << buf;
  }
  out.flush();
  return out.good();
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_workload = false;
  bool valid = argc % 2 == 1;
  for (int i = 1; valid && i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      valid = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      valid = !value.empty() && *end == '\0' && opts.seconds > 0.0;
    } else if (flag == "--trace") {
      opts.trace = value == "1";
      valid = value == "0" || value == "1";
    } else if (flag == "--setup-only") {
      opts.setup_only = value == "1";
      valid = value == "0" || value == "1";
    } else {
      valid = false;
    }
  }
  if (!valid || !have_workload) {
    usage();
    return 2;
  }

  const bool batch = opts.workload == "paper-table1" || opts.workload == "scale-sparse" ||
                     opts.workload == "faults-dense";
  if ((!batch && opts.workload != "serve-closed") || (opts.setup_only && !batch)) {
    usage();
    return 2;
  }
  ::mkdir(opts.out_dir.c_str(), 0755);
  Report report(opts.trace);
  try {
    if (batch) {
      run_batch(opts, report);
    } else {
      run_serve_closed(opts, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rips_perfbench: %s\n", e.what());
    return 1;
  }
  if (opts.setup_only) return 0;
  std::printf("%s\n", report.json().c_str());
  return 0;
}
