// Serving-layer suite (docs/SERVING.md): protocol parsing/encoding,
// admission control, the online job substrate, run_online dynamics and
// determinism, the JobServer end to end without sockets, and the
// Unix-socket transport end to end. Carries the `serve` ctest label; CI
// runs it under ASan/UBSan and TSan (the JobServer is the one
// multi-threaded serving component).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/online_source.hpp"
#include "apps/synthetic.hpp"
#include "obs/json.hpp"
#include "obs/monitors.hpp"
#include "rips/rips_engine.hpp"
#include "sched/mwa.hpp"
#include "serve/admission.hpp"
#include "serve/job_server.hpp"
#include "serve/protocol.hpp"
#include "serve/socket_server.hpp"
#include "topo/topology.hpp"

namespace rips {
namespace {

apps::TaskTrace small_job(u64 seed, i32 roots = 8) {
  apps::SyntheticConfig config;
  config.num_roots = roots;
  config.max_depth = 3;
  config.spawn_prob = 0.5;
  config.max_branch = 3;
  config.mean_work = 2000;
  config.work_model = 2;
  config.num_segments = 1;
  return apps::build_synthetic_trace(config, seed);
}

bool reply_is_error(const std::string& reply, i32 code) {
  std::string error;
  const auto doc = obs::json::parse(reply, &error);
  if (!doc.has_value() || !doc->is_object()) return false;
  const obs::json::Value* ok = doc->find("ok");
  const obs::json::Value* c = doc->find("code");
  return ok != nullptr && ok->is_bool() && !ok->boolean && c != nullptr &&
         c->is_number() && c->as_i64() == code;
}

/// A server counter out of a stats reply (-1 when the reply does not
/// parse or lacks the counter).
i64 stats_counter(const std::string& reply, const std::string& name) {
  const auto doc = obs::json::parse(reply);
  if (!doc.has_value()) return -1;
  const obs::json::Value* server = doc->find("server");
  const obs::json::Value* counters =
      server != nullptr ? server->find("counters") : nullptr;
  const obs::json::Value* c =
      counters != nullptr ? counters->find(name) : nullptr;
  return c != nullptr && c->is_number() ? c->as_i64() : -1;
}

// --- protocol ------------------------------------------------------------

TEST(ServeProtocol, MalformedJsonYieldsError400NotCrash) {
  for (const char* bad :
       {"not json at all", "{\"op\":", "{}", "[1,2,3]", "{\"op\":5}",
        "\"op\"", "{\"op\":\"submit\",\"roots\":}", "{\"op\":\"nope\"}"}) {
    const serve::ParseOutcome out = serve::parse_request(bad);
    EXPECT_FALSE(out.ok) << bad;
    EXPECT_EQ(out.code, 400) << bad;
    EXPECT_FALSE(out.error.empty()) << bad;
    // The error must round-trip into a valid JSON reply line.
    std::string parse_error;
    const auto reply = obs::json::parse(
        serve::error_reply(out.op, out.code, out.error), &parse_error);
    ASSERT_TRUE(reply.has_value()) << parse_error;
  }
}

TEST(ServeProtocol, OversizedFrameRejectedWith413) {
  std::string huge = "{\"op\":\"ping\",\"pad\":\"";
  huge.append(serve::kMaxFrame, 'x');
  huge += "\"}";
  const serve::ParseOutcome out = serve::parse_request(huge);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.code, 413);
}

TEST(ServeProtocol, SubmitValidatesParameterRanges) {
  const auto code_of = [](const std::string& line) {
    const serve::ParseOutcome out = serve::parse_request(line);
    return out.ok ? 0 : out.code;
  };
  EXPECT_EQ(code_of("{\"op\":\"submit\"}"), 0);  // all defaults valid
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"workload\":\"exotic\"}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"roots\":0}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"roots\":3.5}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"spawn\":1.5}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"tenant\":\"\"}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"submit\",\"n\":20}"), 400);
  EXPECT_EQ(code_of("{\"op\":\"status\"}"), 400);  // job id required
  EXPECT_EQ(code_of("{\"op\":\"status\",\"job\":3}"), 0);
}

TEST(ServeProtocol, WorstCaseSubmitBuildsBoundedTrace) {
  // These parameters pass protocol validation but describe a forest whose
  // expected size is ~65536 * 8.5^16 tasks. Bounded construction must stop
  // at cap + 1 tasks instead of materializing it (which would OOM the
  // daemon before admission control ever ran).
  serve::SubmitParams params;
  params.roots = 65536;
  params.depth = 16;
  params.branch = 16;
  params.spawn = 1.0;
  const apps::TaskTrace trace = serve::build_job_trace(params, 10'000);
  EXPECT_EQ(trace.size(), 10'001u);
}

TEST(ServeProtocol, ReplyEncodersProduceParseableJson) {
  std::string error;
  auto ok = obs::json::parse(serve::ok_reply("ping", ""), &error);
  ASSERT_TRUE(ok.has_value()) << error;
  auto err = obs::json::parse(
      serve::error_reply("submit", 429, "q \"full\"\n", 150), &error);
  ASSERT_TRUE(err.has_value()) << error;
  EXPECT_EQ(err->find("retry_after_ms")->as_i64(), 150);
}

// --- admission -----------------------------------------------------------

TEST(ServeAdmission, VerdictsAreDeterministicFunctionsOfQueueState) {
  serve::AdmissionOptions options;
  options.max_pending = 4;
  options.tenant_cap = 2;
  options.retry_base_ms = 50;
  const serve::AdmissionController admission(options);

  // Same inputs, same verdict — run each case twice.
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(admission.check(0, 0, false).admitted);
    EXPECT_TRUE(admission.check(3, 1, false).admitted);

    const serve::AdmissionVerdict draining = admission.check(0, 0, true);
    EXPECT_FALSE(draining.admitted);
    EXPECT_EQ(draining.code, 409);
    EXPECT_EQ(draining.retry_after_ms, -1);

    const serve::AdmissionVerdict full = admission.check(4, 0, false);
    EXPECT_FALSE(full.admitted);
    EXPECT_EQ(full.code, 429);
    EXPECT_EQ(full.retry_after_ms, 50);  // backlog 0 past the cap
    EXPECT_EQ(admission.check(6, 0, false).retry_after_ms, 150);  // grows

    const serve::AdmissionVerdict capped = admission.check(1, 2, false);
    EXPECT_FALSE(capped.admitted);
    EXPECT_EQ(capped.code, 429);
    EXPECT_EQ(capped.retry_after_ms, 50);
  }
}

// --- online job substrate ------------------------------------------------

TEST(OnlineJobs, AppendPreservesStructureAndMapsOwnership) {
  apps::TaskTrace a = small_job(1);
  apps::TaskTrace b = small_job(2, 4);

  apps::OnlineJobs jobs;
  std::vector<TaskId> roots_a;
  std::vector<TaskId> roots_b;
  EXPECT_EQ(jobs.append_job("a", a, &roots_a), 0);
  EXPECT_EQ(jobs.append_job("b", b, &roots_b), 1);

  EXPECT_EQ(jobs.trace().size(), a.size() + b.size());
  EXPECT_EQ(jobs.job_tasks(0), a.size());
  EXPECT_EQ(jobs.job_tasks(1), b.size());
  EXPECT_EQ(roots_a.size(), a.roots(0).size());
  EXPECT_EQ(roots_b.size(), b.roots(0).size());

  // Ownership map covers every task and total work is preserved per job.
  ASSERT_EQ(jobs.job_of().size(), jobs.trace().size());
  u64 work[2] = {0, 0};
  for (TaskId t = 0; t < static_cast<TaskId>(jobs.trace().size()); ++t) {
    const i32 owner = jobs.job_of()[t];
    ASSERT_TRUE(owner == 0 || owner == 1);
    work[owner] += jobs.trace().task(t).work;
  }
  u64 want_a = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(a.size()); ++t) {
    want_a += a.task(t).work;
  }
  EXPECT_EQ(work[0], want_a);
}

// --- run_online ----------------------------------------------------------

sim::RunMetrics run_scripted(std::vector<apps::ScriptedJob> schedule,
                             bool* monitors_ok) {
  apps::ScriptedSource source(std::move(schedule));
  const topo::MeshShape shape = topo::paper_mesh_shape(16);
  topo::Mesh mesh(shape.rows, shape.cols);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  obs::InvariantMonitor monitor;
  obs::Obs o;
  o.monitor = &monitor;
  engine.set_obs(o);
  sim::RunMetrics m = engine.run_online(source);
  *monitors_ok = monitor.ok();
  if (!monitor.ok()) {
    ADD_FAILURE() << monitor.violations()[0].monitor << ": "
                  << monitor.violations()[0].detail;
  }
  return m;
}

std::vector<apps::ScriptedJob> sample_schedule() {
  std::vector<apps::ScriptedJob> schedule;
  schedule.push_back({"t0/j0", 0, small_job(11)});
  schedule.push_back({"t1/j1", 5'000'000, small_job(12)});
  schedule.push_back({"t0/j2", 80'000'000, small_job(13, 4)});
  return schedule;
}

TEST(RunOnline, ScriptedSessionIsDeterministic) {
  bool ok1 = false;
  bool ok2 = false;
  const sim::RunMetrics a = run_scripted(sample_schedule(), &ok1);
  const sim::RunMetrics b = run_scripted(sample_schedule(), &ok2);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.jobs.size(), 3u);
  EXPECT_GT(a.num_tasks, 0u);
}

TEST(RunOnline, LateArrivalsExecuteAndExtendTheSession) {
  // The third job arrives long after the first two would have finished —
  // the engine must go idle, advance to the arrival, and run it.
  bool ok = false;
  const sim::RunMetrics m = run_scripted(sample_schedule(), &ok);
  EXPECT_TRUE(ok);
  const u64 total = small_job(11).size() + small_job(12).size() +
                    small_job(13, 4).size();
  EXPECT_EQ(m.num_tasks, total);
  EXPECT_GE(m.jobs[2].completion_ns, 80'000'000);
  EXPECT_GT(m.makespan_ns, 80'000'000);
}

TEST(RunOnline, MatchesBatchMergeWhenEverythingArrivesUpFront) {
  // All jobs at t=0 makes the online session a plain multi-job run over
  // the same merged trace; executed totals and work must agree with the
  // engine replaying that trace directly.
  std::vector<apps::ScriptedJob> schedule;
  schedule.push_back({"j0", 0, small_job(21)});
  schedule.push_back({"j1", 0, small_job(22)});
  bool ok = false;
  const sim::RunMetrics online = run_scripted(std::move(schedule), &ok);
  EXPECT_TRUE(ok);

  apps::OnlineJobs merged;
  merged.append_job("j0", small_job(21), nullptr);
  merged.append_job("j1", small_job(22), nullptr);
  const topo::MeshShape shape = topo::paper_mesh_shape(16);
  topo::Mesh mesh(shape.rows, shape.cols);
  sched::Mwa mwa(mesh);
  sim::CostModel cost;
  cost.ns_per_work = 500.0;
  core::RipsEngine engine(mwa, cost, core::RipsConfig{});
  const sim::RunMetrics batch = engine.run(merged.trace());

  EXPECT_EQ(online.num_tasks, batch.num_tasks);
  EXPECT_EQ(online.sequential_ns, batch.sequential_ns);
}

// --- JobServer (no sockets) ----------------------------------------------

TEST(JobServer, AcceptsJobsSubmittedAfterTheEngineLoopStarted) {
  serve::ServeOptions options;
  options.nodes = 16;
  options.monitors = true;
  serve::JobServer server(options);
  server.start();

  serve::SubmitParams first;
  first.tenant = "alice";
  first.roots = 16;
  first.mean_work = 20000;  // big enough to still be running below
  const auto a = server.submit(first);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.job_id, 0);

  // Wait until the engine loop has provably executed tasks of job 0...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.executed_total() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "engine never started executing";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...then submit a second tenant's job INTO the running session. This is
  // the online-source acceptance test: the job must complete even though
  // the loop was already past its initial work when it arrived.
  serve::SubmitParams second;
  second.tenant = "bob";
  const auto b = server.submit(second);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.job_id, 1);

  server.drain();
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.jobs_done(), 2u);
  EXPECT_TRUE(server.monitors_ok());  // conservation held throughout
  const sim::RunMetrics& m = server.result();
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].tasks + m.jobs[1].tasks, m.num_tasks);
  EXPECT_EQ(m.jobs[0].name, "alice/job-0");
  EXPECT_EQ(m.jobs[1].name, "bob/job-1");

  // The session exports a validator-clean rips-bench-v1 document.
  std::string error;
  const auto doc = obs::json::parse(server.bench_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::json::Value* runs = doc->find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array());
  ASSERT_EQ(runs->array.size(), 1u);
  const obs::json::Value& run = runs->array[0];
  EXPECT_TRUE(run.find("fairness") != nullptr);
  EXPECT_EQ(run.find("jobs")->array.size(), 2u);
  EXPECT_TRUE(run.find("latency_p99_ns") != nullptr);
}

TEST(JobServer, AdmissionRejectsAreDeterministicAndCounted) {
  serve::ServeOptions options;
  options.nodes = 16;
  options.admission.max_pending = 0;  // every submit sheds
  serve::JobServer server(options);
  server.start();

  for (int i = 0; i < 3; ++i) {
    const auto out = server.submit(serve::SubmitParams{});
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.code, 429);
    EXPECT_EQ(out.retry_after_ms, 50);
  }
  const std::string stats = server.handle_line("{\"op\":\"stats\"}");
  EXPECT_EQ(stats_counter(stats, "server.rejected_queue_full"), 3) << stats;
  server.drain();
  EXPECT_EQ(server.jobs_done(), 0u);
}

TEST(JobServer, WorstCaseSubmitIsRejected400AndServerStaysUp) {
  serve::ServeOptions options;
  options.nodes = 16;
  options.max_job_tasks = 5000;
  serve::JobServer server(options);
  server.start();

  // One well-formed worst-case request: bounded build + 400 reject, the
  // socket thread never wedges and the daemon keeps serving.
  const std::string reply = server.handle_line(
      "{\"op\":\"submit\",\"roots\":65536,\"depth\":16,\"branch\":16,"
      "\"spawn\":1.0}");
  EXPECT_TRUE(reply_is_error(reply, 400));
  const std::string stats = server.handle_line("{\"op\":\"stats\"}");
  EXPECT_EQ(stats_counter(stats, "server.rejected_too_large"), 1) << stats;
  EXPECT_NE(server.handle_line("{\"op\":\"submit\"}").find("\"job\":0"),
            std::string::npos);
  server.drain();
  EXPECT_EQ(server.jobs_done(), 1u);
}

TEST(JobServer, TenantSlotFreesWhenItsJobCompletes) {
  serve::ServeOptions options;
  options.nodes = 16;
  options.admission.tenant_cap = 1;
  serve::JobServer server(options);

  // Submitted before the engine starts, the first job is certainly still
  // queued when the cap probe lands: the probe's 429 does not depend on
  // how fast the engine runs.
  serve::SubmitParams first;
  first.tenant = "t";
  first.roots = 50;
  ASSERT_TRUE(server.submit(first).ok);
  serve::SubmitParams probe;
  probe.tenant = "t";
  probe.roots = 1;
  probe.depth = 0;
  const auto capped = server.submit(probe);
  EXPECT_FALSE(capped.ok);  // same tenant, cap 1, first job not done yet
  EXPECT_EQ(capped.code, 429);

  // Another tenant is unaffected by t's cap.
  serve::SubmitParams other;
  other.tenant = "u";
  other.roots = 1;
  other.depth = 0;
  ASSERT_TRUE(server.submit(other).ok);
  server.start();

  // Once both jobs complete, t's slot frees again (the per-tenant active
  // count decrements on completion, not just at drain).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.jobs_done() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "jobs never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serve::SubmitParams again;
  again.tenant = "t";
  again.roots = 1;
  again.depth = 0;
  EXPECT_TRUE(server.submit(again).ok);
  server.drain();
  EXPECT_EQ(server.jobs_done(), 3u);
}

TEST(JobServer, JobsAdmittedBeforeStartRunAtDrain) {
  serve::ServeOptions options;
  options.nodes = 16;
  serve::JobServer server(options);
  serve::SubmitParams params;
  params.tenant = "t";
  params.roots = 4;
  ASSERT_TRUE(server.submit(params).ok);
  ASSERT_TRUE(server.submit(params).ok);
  server.drain();  // never started: the drain starts the engine
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.jobs_done(), 2u);
  EXPECT_TRUE(server.monitors_ok());
}

TEST(JobServer, IdleWaitBeforeSubmissionIsNotChargedAsLatency) {
  serve::ServeOptions options;
  options.nodes = 16;
  serve::JobServer server(options);
  server.start();

  // Park the engine in the idle wait and let real time pass. That idle
  // stretch predates the submission, so it must not show up in the job's
  // reported latency (only queueing-after-submit + execution may).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  serve::SubmitParams p;
  p.tenant = "t";
  ASSERT_TRUE(server.submit(p).ok);
  server.drain();

  std::string error;
  const auto doc = obs::json::parse(server.bench_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::json::Value* runs = doc->find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array());
  ASSERT_EQ(runs->array.size(), 1u);
  const obs::json::Value* p50 = runs->array[0].find("latency_p50_ns");
  ASSERT_NE(p50, nullptr);
  // Generous bound: well under the 400 ms idle stretch, far above any
  // plausible wake-up + execution time for the default job.
  EXPECT_LT(p50->as_i64(), 200'000'000) << "idle wait leaked into latency";
}

TEST(JobServer, HandleLineCoversEveryOpAndShutdownIsIdempotent) {
  serve::ServeOptions options;
  options.nodes = 16;
  serve::JobServer server(options);
  server.start();

  EXPECT_NE(server.handle_line("{\"op\":\"ping\"}").find("\"ok\":true"),
            std::string::npos);
  EXPECT_TRUE(reply_is_error(server.handle_line("garbage"), 400));
  EXPECT_TRUE(
      reply_is_error(server.handle_line("{\"op\":\"status\",\"job\":7}"),
                     404));
  std::string oversized(serve::kMaxFrame + 1, 'x');
  EXPECT_TRUE(reply_is_error(server.handle_line(oversized), 413));

  const std::string submitted =
      server.handle_line("{\"op\":\"submit\",\"tenant\":\"carol\"}");
  EXPECT_NE(submitted.find("\"job\":0"), std::string::npos);

  bool wants_shutdown = false;
  const std::string first =
      server.handle_line("{\"op\":\"shutdown\"}", &wants_shutdown);
  EXPECT_TRUE(wants_shutdown);
  EXPECT_NE(first.find("\"already\":false"), std::string::npos);
  const std::string again = server.handle_line("{\"op\":\"shutdown\"}");
  EXPECT_NE(again.find("\"already\":true"), std::string::npos);

  // Submissions after the drain are refused with 409, deterministically.
  EXPECT_TRUE(
      reply_is_error(server.handle_line("{\"op\":\"submit\"}"), 409));
  EXPECT_EQ(server.jobs_done(), 1u);
}

// --- socket transport ----------------------------------------------------

class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr;
    ::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send(const std::string& bytes) {
    EXPECT_EQ(::write(fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  std::string read_line() {
    std::string reply;
    char c;
    while (::read(fd_, &c, 1) == 1 && c != '\n') reply.push_back(c);
    return reply;
  }

  std::string roundtrip(const std::string& request) {
    send(request + "\n");
    return read_line();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(SocketServer, EndToEndSessionOverTheWire) {
  const std::string path =
      testing::TempDir() + "rips-serve-test-" +
      std::to_string(::getpid()) + ".sock";
  serve::ServeOptions options;
  options.nodes = 16;
  serve::JobServer server(options);
  serve::SocketServer socket(server, path);
  server.start();
  std::thread loop([&socket] { socket.serve_forever(); });

  {
    Client alice(path);
    ASSERT_TRUE(alice.connected());
    EXPECT_NE(alice.roundtrip("{\"op\":\"ping\"}").find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(
        alice
            .roundtrip("{\"op\":\"submit\",\"tenant\":\"alice\"}")
            .find("\"job\":0"),
        std::string::npos);
    // Malformed input over the wire: an error reply, the connection (and
    // the server) stay up.
    EXPECT_TRUE(reply_is_error(alice.roundtrip("{{{{"), 400));
    EXPECT_NE(alice.roundtrip("{\"op\":\"ping\"}").find("\"ok\":true"),
              std::string::npos);
  }
  {
    Client bob(path);
    ASSERT_TRUE(bob.connected());
    EXPECT_NE(
        bob.roundtrip("{\"op\":\"submit\",\"tenant\":\"bob\"}")
            .find("\"job\":1"),
        std::string::npos);
    EXPECT_NE(bob.roundtrip("{\"op\":\"drain\"}").find("\"jobs_done\":2"),
              std::string::npos);
    EXPECT_NE(bob.roundtrip("{\"op\":\"shutdown\"}")
                  .find("\"already\":false"),
              std::string::npos);
  }
  loop.join();
  EXPECT_TRUE(server.monitors_ok());
  EXPECT_EQ(server.jobs_done(), 2u);
}

// Every reply is exactly one line, the stats reply with its embedded
// server registry included: three pipelined requests on one connection
// read back as three complete JSON objects, in order.
TEST(SocketServer, StatsReplyKeepsOneObjectPerLine) {
  const std::string path =
      testing::TempDir() + "rips-serve-stats-" +
      std::to_string(::getpid()) + ".sock";
  serve::ServeOptions options;
  options.nodes = 16;
  serve::JobServer server(options);
  serve::SocketServer socket(server, path);
  server.start();
  std::thread loop([&socket] { socket.serve_forever(); });

  std::vector<std::string> lines;
  {
    Client client(path);
    ASSERT_TRUE(client.connected());
    client.send(
        "{\"op\":\"drain\"}\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n");
    // The shutdown reply ends the session, so the reads cannot block even
    // when the replies are misframed.
    for (int i = 0; i < 3; ++i) lines.push_back(client.read_line());
  }
  loop.join();

  const char* const ops[] = {"drain", "stats", "shutdown"};
  for (size_t i = 0; i < 3; ++i) {
    std::string error;
    const auto doc = obs::json::parse(lines[i], &error);
    ASSERT_TRUE(doc.has_value()) << ops[i] << ": " << error << " in "
                                 << lines[i];
    const obs::json::Value* op = doc->find("op");
    ASSERT_NE(op, nullptr) << lines[i];
    EXPECT_EQ(op->string, ops[i]) << lines[i];
  }
  EXPECT_GE(stats_counter(lines[1], "server.submitted"), 0) << lines[1];
}

}  // namespace
}  // namespace rips
