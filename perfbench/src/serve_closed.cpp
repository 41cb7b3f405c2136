// serve-closed: the rips_served daemon (256 nodes, monitors on) driven over
// its Unix-domain socket by two closed-loop clients in this process. Each
// client holds one connection: it submits a job, then polls its status
// back to back (the next poll leaves as soon as a reply is read) until the
// job is done, then submits the next. Turnaround is thus resolved to one
// status round trip, not to a sleep interval.
// At most two jobs are outstanding, far under the admission caps (16
// pending, 4 per tenant), so no submit is refused. The jobs follow
// bench/serve_soak's job mix, the repository's model of serving traffic.
//
// One round starts a daemon, serves the same kRoundJobs jobs, drains it and
// shuts it down. The daemon's per-job cost grows with the jobs it has
// served, so a fixed job count per daemon is what keeps rounds comparable.
// The first round is the warm-up; the figures are medians over the timed
// rounds, and the set-up time is the median over every round of the time
// from starting the daemon until it listens (each a fresh process). The
// daemon's simulated clock absorbs wall-clock idle time, so a session's
// own simulated figures are not reproducible: efficiency, makespan and
// non-local tasks come from replaying the round's first jobs through the
// same online engine on serve_soak's simulated arrival schedule.
//
// The traced run records spans for every second job of each client, so the
// tracing overhead is measured against untraced jobs of the same rounds.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/online_source.hpp"
#include "common.hpp"
#include "obs/json.hpp"
#include "obs/monitors.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "serve/protocol.hpp"
#include "topo/topology.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace rips;

constexpr i32 kNodes = 256;
constexpr double kNsPerWork = 500.0;   // the daemon's default cost grain
constexpr u64 kMaxJobTasks = 200'000;  // the daemon's default per-job cap
constexpr int kClients = 2;
constexpr u64 kRoundJobs = 2000;
constexpr double kJobTimeoutS = 30.0;
constexpr size_t kReplayJobs = 400;
// bench/serve_soak's defaults: four tenants, a job every 20 ms.
constexpr u64 kTenants = 4;
constexpr SimTime kReplayInterarrivalNs = 20'000'000;

/// Job k of a session, in bench/serve_soak's job mix (its run_soak): 8-32
/// roots, depth 3-5, branch 3, spawn 0.45, mean work 2000-5000, exponential
/// grains, cycling with k. serve_soak seeds job k with seed + k; here the
/// seeds of --seed n are n * 10000 + k, so seeds do not share jobs.
serve::SubmitParams job_params(u64 seed, u64 k) {
  serve::SubmitParams p;
  p.tenant = "tenant-" + std::to_string(k % kTenants);
  p.workload = "synthetic";
  p.roots = 8 + static_cast<i64>(k % 5) * 6;
  p.depth = 3 + static_cast<i64>(k % 3);
  p.branch = 3;
  p.spawn = 0.45;
  p.mean_work = 2000 + static_cast<i64>(k % 7) * 500;
  p.work_model = 2;
  p.seed = (seed % (u64{1} << 32)) * 10'000 + k;
  return p;
}

std::string submit_line(const serve::SubmitParams& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"submit\",\"tenant\":\"%s\",\"workload\":\"synthetic\","
                "\"roots\":%lld,\"depth\":%lld,\"branch\":%lld,\"spawn\":%.3f,"
                "\"mean_work\":%lld,\"work_model\":%lld,\"seed\":%llu}",
                p.tenant.c_str(), static_cast<long long>(p.roots),
                static_cast<long long>(p.depth), static_cast<long long>(p.branch), p.spawn,
                static_cast<long long>(p.mean_work), static_cast<long long>(p.work_model),
                static_cast<unsigned long long>(p.seed));
  return buf;
}

/// One blocking line-protocol connection.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connected() const { return connected_; }

  /// Sends one request line and returns the reply line ("" on EOF/error).
  std::string request(const std::string& line) {
    std::string out = line;
    out.push_back('\n');
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      sent += static_cast<size_t>(n);
    }
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// The daemon process; killed and reaped on every exit path. Its stdout
/// and stderr are read through a pipe: the "listening" line is its
/// readiness signal, the "shut down after" line its session summary.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path) : started_(Clock::now()) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
    out_fd_ = fds[0];
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 2);
    const std::string sock_arg = "--socket=" + socket_path;
    const std::string nodes_arg = "--nodes=" + std::to_string(kNodes);
    std::vector<char*> argv = {const_cast<char*>(RIPS_SERVED_PATH),
                               const_cast<char*>(sock_arg.c_str()),
                               const_cast<char*>(nodes_arg.c_str()),
                               const_cast<char*>("--monitors=1"), nullptr};
    const int rc = posix_spawn(&pid_, RIPS_SERVED_PATH, &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start rips_served: " + std::string(std::strerror(rc)));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      wait_exit();
    }
    ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads output lines until one starts with `prefix`; "" on EOF/timeout.
  std::string wait_line(const std::string& prefix, double timeout_s) {
    const Clock::time_point t0 = Clock::now();
    while (true) {
      const size_t nl = out_.find('\n');
      if (nl != std::string::npos) {
        std::string line = out_.substr(0, nl);
        out_.erase(0, nl + 1);
        if (line.starts_with(prefix)) return line;
        continue;
      }
      const double left = timeout_s - seconds_between(t0, Clock::now());
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) return {};
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) return {};
      out_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Waits for the daemon to exit; returns its exit status (-1 on signal).
  int wait_exit() {
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  double peak_rss_mb() const { return peak_rss_mb_; }
  Clock::time_point started() const { return started_; }

 private:
  Clock::time_point started_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_;
  double peak_rss_mb_ = 0;
};

struct JobRecord {
  double turnaround = 0;  ///< submit sent -> first status reply saying done
  double submit_rtt = 0;
  u64 tasks = 0;
  bool traced = false;    ///< spans were recorded for this job
};

struct ClientLog {
  std::vector<JobRecord> jobs;
  u64 requests = 0;
  u64 failures = 0;
  std::string first_failure;
  u64 polls = 0;
  // Traced run only:
  bool record_spans = false;
  SpanLog spans;
  std::vector<double> status_rtts;
  std::vector<std::string> request_lines;  ///< sent, for the parse timing
  std::vector<serve::SubmitParams> submitted;
};

const obs::json::Value* field(const std::optional<obs::json::Value>& doc, const char* key) {
  return doc.has_value() && doc->is_object() ? doc->find(key) : nullptr;
}

bool reply_ok(const std::optional<obs::json::Value>& doc) {
  const obs::json::Value* ok = field(doc, "ok");
  return ok != nullptr && ok->is_bool() && ok->boolean;
}

/// One closed-loop client until the round's jobs are all handed out.
void client_loop(const std::string& path, u64 seed, std::atomic<u64>& next_job,
                 ClientLog& log) {
  Connection conn(path);
  const auto fail = [&log](const std::string& what) {
    log.failures += 1;
    if (log.first_failure.empty()) log.first_failure = what;
  };
  if (!conn.connected()) {
    fail("client cannot connect");
    return;
  }
  while (true) {
    const u64 k = next_job.fetch_add(1);
    if (k >= kRoundJobs) break;
    const serve::SubmitParams params = job_params(seed, k);
    const std::string line = submit_line(params);
    const Clock::time_point ts = Clock::now();
    const std::string reply = conn.request(line);
    const Clock::time_point tr = Clock::now();
    log.requests += 1;
    if (log.record_spans) log.request_lines.push_back(line);
    const auto doc = obs::json::parse(reply);
    const obs::json::Value* job = field(doc, "job");
    const obs::json::Value* tasks = field(doc, "tasks");
    if (!reply_ok(doc) || job == nullptr || tasks == nullptr) {
      fail("submit: " + reply);
      return;
    }
    if (log.record_spans) log.submitted.push_back(params);
    JobRecord rec;
    rec.submit_rtt = seconds_between(ts, tr);
    rec.tasks = static_cast<u64>(tasks->as_i64());
    rec.traced = log.record_spans && log.jobs.size() % 2 == 1;
    const std::string status = "{\"op\":\"status\",\"job\":" + std::to_string(job->as_i64()) + "}";
    i64 job_span = SpanLog::kNoParent;
    if (rec.traced) {
      job_span = log.spans.add("serve.job", ts, ts, SpanLog::kNoParent);
      log.spans.add("serve.submit", ts, tr, job_span);
    }
    while (true) {
      const Clock::time_point poll_sent = Clock::now();
      const std::string sreply = conn.request(status);
      const Clock::time_point polled = Clock::now();
      log.requests += 1;
      log.polls += 1;
      if (log.record_spans) {
        log.status_rtts.push_back(seconds_between(poll_sent, polled));
        log.request_lines.push_back(status);
      }
      if (rec.traced) log.spans.add("serve.status", poll_sent, polled, job_span);
      const auto sdoc = obs::json::parse(sreply);
      const obs::json::Value* state = field(sdoc, "state");
      if (!reply_ok(sdoc) || state == nullptr || !state->is_string()) {
        fail("status: " + sreply);
        return;
      }
      if (state->string == "done") {
        rec.turnaround = seconds_between(ts, polled);
        if (rec.traced) log.spans.set_end(job_span, polled);
        break;
      }
      if (seconds_between(ts, polled) > kJobTimeoutS) {
        fail("job " + std::to_string(job->as_i64()) + " not done after 30 s");
        return;
      }
    }
    log.jobs.push_back(rec);
  }
}

/// The task total of the daemon's "shut down after ..., N tasks executed"
/// line; 0 when the line does not have that shape.
u64 logged_tasks_executed(const std::string& line) {
  const size_t at = line.find(" tasks executed");
  const size_t from = line.rfind(", ", at);
  if (at == std::string::npos || from == std::string::npos) return 0;
  return std::strtoull(line.substr(from + 2, at - from - 2).c_str(), nullptr, 10);
}

/// The first kReplayJobs jobs of a round, replayed through the online engine
/// with ScriptedSource: deterministic simulated figures of the job mix.
sim::RunMetrics replay(u64 seed, Report& report, ScheduleStats& stats) {
  std::vector<apps::ScriptedJob> schedule;
  for (u64 k = 0; k < kReplayJobs; ++k) {
    apps::ScriptedJob job;
    job.name = "tenant-" + std::to_string(k % kTenants) + "/job-" + std::to_string(k);
    job.arrival_ns = static_cast<SimTime>(k) * kReplayInterarrivalNs;
    job.trace = serve::build_job_trace(job_params(seed, k), kMaxJobTasks);
    schedule.push_back(std::move(job));
  }
  apps::ScriptedSource source(std::move(schedule));
  const topo::MeshShape shape = topo::paper_mesh_shape(kNodes);
  sched::Mwa mwa(topo::Mesh(shape.rows, shape.cols));
  ProbedScheduler probed(mwa, ProbeMode::kCheck, stats, nullptr);
  sim::CostModel cost;
  cost.ns_per_work = kNsPerWork;
  core::RipsEngine engine(probed, cost, core::RipsConfig{});
  engine.set_phase_snapshots(false);
  obs::InvariantMonitor monitor;
  obs::Obs o;
  o.monitor = &monitor;
  engine.set_obs(o);
  const sim::RunMetrics m = engine.run_online(source);
  report.attempted += 1;
  report.check(monitor.ok(), "replay: invariant monitors tripped: " + monitor.report());
  report.check(stats.check_failures == 0, "replay: bad schedule() result: " + stats.first_failure);
  report.check(m.num_tasks == source.trace().size(), "replay: executions != tasks submitted");
  report.check(m.makespan_ns > 0 && static_cast<double>(m.makespan_ns) * kNodes >=
                                        static_cast<double>(m.sequential_ns),
               "replay: makespan below total work / nodes");
  return m;
}

struct Round {
  std::vector<ClientLog> logs;
  double listen_s = 0;  ///< daemon started -> its "listening" line
  double seconds = 0;  ///< first submit sent -> last job seen done
  double peak_rss_mb = 0;
  u64 tasks = 0;
  // Traced run only: parse_request and build_job_trace timed from outside
  // over the round's own requests, and the median status round trip.
  double parse_s = 0;
  double build_s = 0;
  bool parsed_all = true;
  u64 built_tasks = 0;
  double status_rtt = 0;
};

/// Fills the traced-run fields of `round` and frees the request copies.
void time_requests(Round& round) {
  const Clock::time_point t0 = Clock::now();
  for (const ClientLog& log : round.logs) {
    for (const std::string& line : log.request_lines) {
      round.parsed_all = serve::parse_request(line).ok && round.parsed_all;
    }
  }
  const Clock::time_point t1 = Clock::now();
  for (const ClientLog& log : round.logs) {
    for (const serve::SubmitParams& p : log.submitted) {
      round.built_tasks += serve::build_job_trace(p, kMaxJobTasks).size();
    }
  }
  const Clock::time_point t2 = Clock::now();
  round.parse_s = seconds_between(t0, t1);
  round.build_s = seconds_between(t1, t2);
  std::vector<double> rtts;
  for (ClientLog& log : round.logs) {
    rtts.insert(rtts.end(), log.status_rtts.begin(), log.status_rtts.end());
    log.status_rtts = {};
    log.request_lines = {};
    log.submitted = {};
  }
  round.status_rtt = median(rtts);
}

/// One daemon lifetime serving kRoundJobs jobs.
Round run_round(const Options& opts, Report& report) {
  const std::string path = opts.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(path);
  if (daemon.wait_line("rips_served: listening", 30.0).empty()) {
    throw std::runtime_error("rips_served did not start listening");
  }
  Round round;
  round.listen_s = seconds_between(daemon.started(), Clock::now());
  round.logs.resize(kClients);
  for (ClientLog& log : round.logs) log.record_spans = opts.trace;
  const Clock::time_point t0 = Clock::now();
  {
    std::atomic<u64> next_job{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::cref(path), opts.seed, std::ref(next_job),
                           std::ref(round.logs[static_cast<size_t>(c)]));
    }
    for (std::thread& t : threads) t.join();
  }
  round.seconds = seconds_between(t0, Clock::now());
  u64 jobs = 0;
  for (const ClientLog& log : round.logs) {
    report.attempted += log.requests;
    report.failed += log.failures;
    report.check(log.failures == 0, "serve client: " + log.first_failure);
    jobs += log.jobs.size();
    for (const JobRecord& j : log.jobs) round.tasks += j.tasks;
  }
  report.check(jobs == kRoundJobs, "a round completed " + std::to_string(jobs) + " jobs");

  // Drain: every admitted job done, monitors clean, task totals agree. No
  // `stats` request: its reply embeds the pretty-printed server registry
  // and spans many lines, which breaks the one-line-per-reply framing.
  {
    Connection admin(path);
    report.check(admin.connected(), "admin connection refused");
    const auto drain = obs::json::parse(admin.request("{\"op\":\"drain\"}"));
    const auto shut = obs::json::parse(admin.request("{\"op\":\"shutdown\"}"));
    report.attempted += 2;
    report.failed += (reply_ok(drain) ? 0 : 1) + (reply_ok(shut) ? 0 : 1);
    const obs::json::Value* done = field(drain, "jobs_done");
    const obs::json::Value* mon = field(drain, "monitors_ok");
    report.check(done != nullptr && static_cast<u64>(done->as_i64()) == jobs,
                 "drain: jobs_done differs from the " + std::to_string(jobs) + " jobs submitted");
    report.check(mon != nullptr && mon->is_bool() && mon->boolean,
                 "drain: monitors_ok is not true");
  }
  const std::string summary = daemon.wait_line("rips_served: shut down", 30.0);
  report.check(logged_tasks_executed(summary) == round.tasks,
               "the daemon's executed-task total differs from the summed submit tasks: " +
                   summary);
  report.check(daemon.wait_exit() == 0, "rips_served exited with a failure status");
  round.peak_rss_mb = daemon.peak_rss_mb();
  ::unlink(path.c_str());
  if (opts.trace) time_requests(round);
  return round;
}

}  // namespace

void run_serve_closed(const Options& opts, Report& report) {
  std::vector<double> listen_s = {run_round(opts, report).listen_s};  // warm-up round
  std::vector<Round> rounds;
  const Clock::time_point t0 = Clock::now();
  while (rounds.empty() || seconds_between(t0, Clock::now()) < opts.seconds) {
    rounds.push_back(run_round(opts, report));
    listen_s.push_back(rounds.back().listen_s);
  }
  const double setup_s = median(listen_s);
  ScheduleStats replay_stats;
  const sim::RunMetrics replayed = replay(opts.seed, report, replay_stats);

  if (!opts.trace) {
    std::vector<double> jobs_per_s, tasks_per_s, rss, p50, p99, s50, s99;
    for (const Round& r : rounds) {
      std::vector<double> turn, sub;
      for (const ClientLog& log : r.logs) {
        for (const JobRecord& j : log.jobs) {
          turn.push_back(1e3 * j.turnaround);
          sub.push_back(1e3 * j.submit_rtt);
        }
      }
      jobs_per_s.push_back(static_cast<double>(kRoundJobs) / r.seconds);
      tasks_per_s.push_back(static_cast<double>(r.tasks) / r.seconds);
      rss.push_back(r.peak_rss_mb);
      p50.push_back(percentile(turn, 0.50));
      p99.push_back(percentile(turn, 0.99));  // 20 samples lie beyond it
      s50.push_back(percentile(sub, 0.50));
      s99.push_back(percentile(sub, 0.99));
    }
    report.set("setup_s", setup_s);
    report.set("sim_tasks_per_s", median(tasks_per_s));
    report.set("peak_rss_mb", median(rss));
    report.set("efficiency", replayed.efficiency());
    report.set("sim_makespan_s", replayed.exec_s());
    report.set("nonlocal_tasks", static_cast<double>(replayed.nonlocal_tasks));
    report.set("jobs_per_s", median(jobs_per_s));
    report.set("job_p50_ms", median(p50));
    report.set("job_p99_ms", median(p99));
    report.set("submit_p50_ms", median(s50));
    report.set("submit_p99_ms", median(s99));
    std::string per_round;
    for (size_t i = 0; i < rounds.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.0f/%.3f", jobs_per_s[i], p50[i]);
      per_round += buf;
    }
    std::fprintf(stderr,
                 "serve-closed: setup %.5f s (median of %zu daemon starts); jobs/s and p50 ms "
                 "per round:%s\n",
                 setup_s, listen_s.size(), per_round.c_str());
    return;
  }

  // Per-layer figures, per timed round.
  SpanLog spans;
  std::vector<double> submit_rtts, status_rtts, turn_traced, turn_untraced;
  double parse_s = 0, build_s = 0;
  u64 polls = 0;
  u64 tasks = 0;
  for (const Round& r : rounds) {
    tasks += r.tasks;
    parse_s += r.parse_s;
    build_s += r.build_s;
    status_rtts.push_back(r.status_rtt);
    report.check(r.parsed_all, "parse_request rejected a request the daemon accepted");
    report.check(r.built_tasks == r.tasks, "build_job_trace sizes differ from the submit replies");
    for (const ClientLog& log : r.logs) {
      spans.append(log.spans);
      polls += log.polls;
      for (const JobRecord& j : log.jobs) {
        submit_rtts.push_back(j.submit_rtt);
        (j.traced ? turn_traced : turn_untraced).push_back(j.turnaround);
      }
    }
  }
  const double n = static_cast<double>(rounds.size());
  report.set("serve.parse_s", parse_s / n);
  report.set("serve.job_build_s", build_s / n);
  report.set("serve.submit_rtt_s", median(submit_rtts));
  report.set("serve.status_rtt_s", median(status_rtts));
  report.set("serve.status_polls", static_cast<double>(polls) / n);
  report.set("serve.tasks_executed", static_cast<double>(tasks) / n);
  report.set("sched.schedule_calls", static_cast<double>(replay_stats.calls));
  report.set("sched.transfers", static_cast<double>(replay_stats.transfers));
  report.set("sched.comm_steps", static_cast<double>(replay_stats.comm_steps));
  report.set("sched.active_node_share",
             replay_stats.node_slots == 0
                 ? 0.0
                 : static_cast<double>(replay_stats.active_nodes) /
                       static_cast<double>(replay_stats.node_slots));
  report.set("trace.untraced_s", median(turn_untraced));
  report.set("trace.overhead_s", median(turn_traced) - median(turn_untraced));

  const std::string spans_path = opts.out_dir + "/" + opts.workload + "-seed" +
                                 std::to_string(opts.seed) + ".spans.tsv";
  report.check(spans.write_tsv(spans_path), "cannot write " + spans_path);
  std::fprintf(stderr, "serve-closed: wrote %zu spans to %s\n", spans.size(), spans_path.c_str());
}

}  // namespace perfbench
