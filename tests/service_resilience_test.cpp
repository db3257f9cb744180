// Tests for the service resilience layer: worker heartbeats and progress
// frames, client-side read deadlines, the exit-reason and numeric wire
// round trips that keep mixed-version peers honest, the runner's
// hang-aware retry policy, job sandboxing, overload shedding, heartbeat
// escalation to a "hung" verdict, and graceful SIGTERM drain with a
// backlog.
//
// The load-bearing contracts:
//  * a busy worker is observably alive: hb frames carry the running op id
//    and a monotonically advancing instret,
//  * a server that accepts but never answers cannot hang a client past
//    its deadline,
//  * every vp::ExitReason — including one this build has no name for —
//    survives the wire, and large numeric spec fields round-trip exactly
//    (1e8 must not decay to "1e+08"),
//  * a stopped worker escalates to SIGKILL and its job reports "hung",
//    never wedging the daemon,
//  * shedding is a structured reply with a backoff hint, not a stall,
//  * SIGTERM mid-campaign yields an "interrupted" report, exactly-once
//    job events, and zero leftover worker processes; a queued fi golden
//    fails its submission, a queued fi chunk skips its faults.
#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include <gtest/gtest.h>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/worker.hpp"
#include "vp/vp.hpp"

// Sandboxing (RLIMIT_AS) is compiled out under ASan/TSan — shadow memory
// and allocator internals cannot live under an address-space cap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VPDIFT_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VPDIFT_TEST_SANITIZED 1
#endif
#endif

namespace {

using namespace vpdift;

// ---------------------------------------------------------------------------
// Worker heartbeats.

TEST(WorkerHeartbeat, StreamsProgressFramesWhileAJobRuns) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  service::WorkerConfig cfg;
  cfg.heartbeat_ms = 50;
  std::thread worker([&] { service::worker_main(sv[1], cfg); });

  campaign::JobSpec job;
  job.name = "hb-spin";
  job.firmware = "spin";
  job.mode = campaign::VpMode::kPlain;
  job.max_ms = 1000000;
  job.wall_budget_s = 0.6;
  ASSERT_TRUE(service::write_line(
      sv[0], "{\"op\":\"job\",\"id\":7,\"spec\":" +
                 campaign::job_spec_to_json(job) + "}"));

  service::LineReader in(sv[0]);
  std::string line;
  std::size_t busy_frames = 0;
  std::uint64_t last_instret = 0;
  bool monotone = true;
  std::string verdict;
  while (verdict.empty() && in.read_line(&line)) {
    const campaign::JsonValue msg = campaign::json_parse(line);
    const std::string ev = msg.str_or("ev");
    if (ev == "hb") {
      // Idle frames carry id 0; only the running op's frames count.
      if (msg.u64_or("id", 0) != 7) continue;
      ++busy_frames;
      const std::uint64_t instret = msg.u64_or("instret", 0);
      if (instret < last_instret) monotone = false;
      last_instret = instret;
    } else if (ev == "result") {
      EXPECT_EQ(msg.u64_or("id", 0), 7u);
      if (const campaign::JsonValue* r = msg.find("result"))
        verdict = r->str_or("verdict");
    }
  }
  ASSERT_TRUE(service::write_line(sv[0], "{\"op\":\"quit\"}"));
  worker.join();
  ::close(sv[0]);

  EXPECT_EQ(verdict, "wall-timeout");
  // 0.6 s of spinning at a 50 ms period: several busy frames, and the
  // progress counter never moves backwards.
  EXPECT_GE(busy_frames, 2u);
  EXPECT_GT(last_instret, 0u);
  EXPECT_TRUE(monotone);
}

TEST(WorkerHeartbeat, ZeroPeriodDisablesTheThread) {
  // Pre-resilience wire behaviour: no hb frames at all, just the result.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  service::WorkerConfig cfg;
  cfg.heartbeat_ms = 0;
  std::thread worker([&] { service::worker_main(sv[1], cfg); });

  campaign::JobSpec job;
  job.name = "quiet";
  job.firmware = "spin";
  job.mode = campaign::VpMode::kPlain;
  job.max_ms = 1000000;
  job.wall_budget_s = 0.3;
  ASSERT_TRUE(service::write_line(
      sv[0], "{\"op\":\"job\",\"id\":3,\"spec\":" +
                 campaign::job_spec_to_json(job) + "}"));
  service::LineReader in(sv[0]);
  std::string line;
  bool saw_hb = false;
  bool saw_result = false;
  while (!saw_result && in.read_line(&line)) {
    const campaign::JsonValue msg = campaign::json_parse(line);
    if (msg.str_or("ev") == "hb") saw_hb = true;
    if (msg.str_or("ev") == "result") saw_result = true;
  }
  ASSERT_TRUE(service::write_line(sv[0], "{\"op\":\"quit\"}"));
  worker.join();
  ::close(sv[0]);
  EXPECT_TRUE(saw_result);
  EXPECT_FALSE(saw_hb);
}

// ---------------------------------------------------------------------------
// Client-side deadlines.

std::string temp_socket_path() {
  char tmpl[] = "/tmp/vpdift-res-sock-XXXXXX";
  const int fd = ::mkstemp(tmpl);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  ::unlink(tmpl);
  return tmpl;
}

int bind_listen(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ClientDeadline, AcceptsButNeverAnswersTripsTheReadTimeout) {
  // Regression: before the deadline reader, a listener that accepted the
  // connection and went silent hung the client forever.
  const std::string sock = temp_socket_path();
  const int lfd = bind_listen(sock);
  ASSERT_GE(lfd, 0);
  std::thread server([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    service::LineReader in(cfd);
    std::string line;
    in.read_line(&line);  // the submit request — never answered
    in.read_line(&line);  // blocks until the client gives up and hangs up
    ::close(cfd);
  });

  service::ClientOptions copts;
  copts.timeout_ms = 400;
  copts.submit_retries = 0;
  const auto t0 = std::chrono::steady_clock::now();
  service::Outcome out;
  {
    service::Client client(sock, copts);
    out = client.submit_ref("fi:attack:3:2", 1, 0);
  }  // destructor closes the fd, releasing the scripted server
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.join();
  ::close(lfd);
  ::unlink(sock.c_str());

  EXPECT_EQ(out.error, "timed out waiting for the server");
  EXPECT_LT(wall, 10.0);  // the deadline, not TCP patience, ended the wait
}

TEST(ClientDeadline, DeadlineReaderDistinguishesTimeoutFromEof) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  service::LineReader in(sv[0], 100);
  std::string line;
  EXPECT_FALSE(in.read_line(&line));
  EXPECT_TRUE(in.timed_out());

  ASSERT_TRUE(service::write_line(sv[1], "hello"));
  EXPECT_TRUE(in.read_line(&line));
  EXPECT_EQ(line, "hello");

  ::close(sv[1]);
  service::LineReader eof_in(sv[0], 100);
  EXPECT_FALSE(eof_in.read_line(&line));
  EXPECT_FALSE(eof_in.timed_out());  // EOF, not expiry
  ::close(sv[0]);
}

// ---------------------------------------------------------------------------
// Wire round trips.

TEST(ExitReasonWire, EveryReasonRoundTrips) {
  for (int i = 0; i <= static_cast<int>(vp::ExitReason::kUnknown); ++i) {
    const auto reason = static_cast<vp::ExitReason>(i);
    campaign::JobResult r;
    r.name = "reason-probe";
    r.verdict = "probe";
    r.run.reason = reason;
    if (reason == vp::ExitReason::kUnknown) r.run.reason_raw = "from-later";
    const campaign::JobResult back = service::job_result_from_json(
        campaign::json_parse(service::job_result_to_json(r)));
    EXPECT_EQ(static_cast<int>(back.run.reason), i)
        << vp::to_string(reason);
    EXPECT_EQ(back.run.reason_raw, r.run.reason_raw) << vp::to_string(reason);
  }
}

TEST(ExitReasonWire, UnknownReasonPreservesTheRawString) {
  // A result from a newer peer carries a reason this build has no name
  // for: it must decode to kUnknown, keep the verbatim string, re-encode
  // it losslessly, and classify as an explicit unknown — never be
  // silently remapped onto an existing reason.
  campaign::JobResult r;
  r.name = "future";
  r.verdict = "probe";
  const std::string wire = service::job_result_to_json(r);
  const std::string doctored = [&] {
    const std::string from = "\"reason\":\"sim-timeout\"";
    const std::string to = "\"reason\":\"quantum-decoherence\"";
    std::string s = wire;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos);
    return s.replace(at, from.size(), to);
  }();

  const campaign::JobResult back =
      service::job_result_from_json(campaign::json_parse(doctored));
  EXPECT_EQ(back.run.reason, vp::ExitReason::kUnknown);
  EXPECT_EQ(back.run.reason_raw, "quantum-decoherence");
  EXPECT_EQ(campaign::verdict_of(back.run), "unknown(quantum-decoherence)");

  // Second hop (an older relay in the middle): still lossless.
  const std::string rewire = service::job_result_to_json(back);
  EXPECT_NE(rewire.find("\"reason\":\"quantum-decoherence\""),
            std::string::npos);
  const campaign::JobResult back2 =
      service::job_result_from_json(campaign::json_parse(rewire));
  EXPECT_EQ(back2.run.reason, vp::ExitReason::kUnknown);
  EXPECT_EQ(back2.run.reason_raw, "quantum-decoherence");
}

TEST(SpecWire, LargeNumericFieldsRoundTripExactly) {
  // Regression: job_spec_from_json re-rendered JSON numbers with default
  // ostream precision, so a max-ms of 1e8 decayed to "1e+08" and the u64
  // parser rejected the job on the worker side of the wire.
  campaign::JobSpec job;
  job.name = "big-numbers";
  job.firmware = "spin";
  job.max_ms = 100000000;
  job.wall_budget_s = 0.25;
  job.mem_budget_mb = 512;
  job.retries = 3;

  campaign::JobSpec back;
  back.firmware = "placeholder";
  campaign::job_spec_from_json(
      back, campaign::json_parse(campaign::job_spec_to_json(job)));
  EXPECT_EQ(back.max_ms, 100000000u);
  EXPECT_DOUBLE_EQ(back.wall_budget_s, 0.25);
  EXPECT_EQ(back.mem_budget_mb, 512u);
  EXPECT_EQ(back.retries, 3);
  EXPECT_EQ(back.firmware, "spin");
}

TEST(SpecWire, AttemptHistoryInstretRoundTrips) {
  // deterministic_hang() compares kill-time retirement counts across
  // attempts, so the history must carry instret through the wire.
  campaign::JobResult r;
  r.name = "hist";
  r.verdict = "hung";
  r.attempts = 2;
  r.history = {{"wall-timeout", "", 123456}, {"hung", "killed", 123456}};
  const campaign::JobResult back = service::job_result_from_json(
      campaign::json_parse(service::job_result_to_json(r)));
  ASSERT_EQ(back.history.size(), 2u);
  EXPECT_EQ(back.history[0].verdict, "wall-timeout");
  EXPECT_EQ(back.history[0].instret, 123456u);
  EXPECT_EQ(back.history[1].verdict, "hung");
  EXPECT_EQ(back.history[1].error, "killed");
  EXPECT_EQ(back.history[1].instret, 123456u);
  EXPECT_TRUE(campaign::deterministic_hang(back.history));
}

// ---------------------------------------------------------------------------
// Retry policy.

TEST(RetryPolicy, DeterministicHangNeedsTwoEqualExpiredAttempts) {
  using campaign::deterministic_hang;
  // Two deadline-expired attempts frozen at the same retirement count:
  // re-running cannot help.
  EXPECT_TRUE(deterministic_hang({{"wall-timeout", "", 500},
                                  {"wall-timeout", "", 500}}));
  EXPECT_TRUE(deterministic_hang({{"crash", "x", 1},
                                  {"hung", "killed", 500},
                                  {"hung", "killed", 500}}));
  // Progress between attempts: slow, not stuck.
  EXPECT_FALSE(deterministic_hang({{"wall-timeout", "", 500},
                                   {"wall-timeout", "", 900}}));
  // One attempt proves nothing.
  EXPECT_FALSE(deterministic_hang({{"hung", "killed", 500}}));
  EXPECT_FALSE(deterministic_hang({}));
  // The last attempt ended for a different reason entirely.
  EXPECT_FALSE(deterministic_hang({{"wall-timeout", "", 500},
                                   {"exit:0", "", 500}}));
}

TEST(RetryPolicy, BackoffIsExponentialCappedAndDeterministicallyJittered) {
  using campaign::retry_backoff;
  // Deterministic for a given (attempt, seed).
  EXPECT_EQ(retry_backoff(1, 42).count(), retry_backoff(1, 42).count());
  // Exponential from 25 ms with +-25% jitter, capped at 400 ms.
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const std::uint64_t base =
        std::min<std::uint64_t>(25ull << (attempt - 1), 400);
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
      const auto ms =
          static_cast<std::uint64_t>(retry_backoff(attempt, seed).count());
      EXPECT_GE(ms, base - base / 4) << attempt << "/" << seed;
      EXPECT_LE(ms, base + base / 4) << attempt << "/" << seed;
    }
  }
  // Different seeds de-synchronize (at least one attempt differs).
  bool diverged = false;
  for (int attempt = 1; attempt <= 10 && !diverged; ++attempt)
    diverged = retry_backoff(attempt, 1).count() !=
               retry_backoff(attempt, 2).count();
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Sandboxing.

TEST(Sandbox, TinyMemBudgetContainsTheJob) {
#ifdef VPDIFT_TEST_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS sandboxing is compiled out under sanitizers";
#else
  // A 1 MiB budget cannot hold the VP's 4 MiB RAM: the build must fail as
  // a contained "crash" verdict — and the process must stay healthy
  // enough to run the same job unconstrained right after.
#if defined(__GLIBC__)
  // Earlier tests in this binary freed VP-sized blocks, which teaches
  // glibc to raise its dynamic mmap threshold and serve large requests
  // from already-mapped arena space — invisible to RLIMIT_AS. Pin the
  // threshold back down and trim, so the 4 MiB RAM allocation needs a
  // fresh mapping the limit can reject (a real worker process hits the
  // limit on its first job without this).
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ::malloc_trim(0);
#endif
  service::WarmCache cache;
  service::Executor exec(cache);
  campaign::JobSpec job;
  job.name = "tiny-mem";
  job.firmware = "primes";
  job.mode = campaign::VpMode::kPlain;
  job.mem_budget_mb = 1;
  const campaign::JobResult r = exec.run_job(job);
  EXPECT_EQ(r.verdict, "crash");
  EXPECT_FALSE(r.error.empty());

  service::WarmCache cache2;
  service::Executor exec2(cache2);
  job.name = "tiny-mem-released";
  job.mem_budget_mb = 0;
  const campaign::JobResult ok = exec2.run_job(job);
  EXPECT_NE(ok.verdict, "crash") << ok.error;
#endif
}

// ---------------------------------------------------------------------------
// Daemon-level resilience. Helpers mirror service_test.cpp.

pid_t fork_daemon(const service::ServerOptions& opts) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(service::run_server(opts));
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    ::usleep(50 * 1000);
    try {
      service::Client probe(opts.socket_path);
      up = probe.ping();
    } catch (const std::exception&) {
    }
  }
  EXPECT_TRUE(up) << "daemon did not come up";
  return pid;
}

std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> kids;
  DIR* d = ::opendir("/proc");
  if (!d) return kids;
  while (struct dirent* e = ::readdir(d)) {
    char* end = nullptr;
    const long pid = std::strtol(e->d_name, &end, 10);
    if (pid <= 0 || !end || *end != '\0') continue;
    std::ifstream st("/proc/" + std::string(e->d_name) + "/stat");
    std::string content((std::istreambuf_iterator<char>(st)),
                        std::istreambuf_iterator<char>());
    const std::size_t rp = content.rfind(')');
    if (rp == std::string::npos) continue;
    std::istringstream rest(content.substr(rp + 1));
    std::string state;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid == parent) kids.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(d);
  return kids;
}

bool wait_exit(pid_t pid, int* status, int timeout_s) {
  for (int i = 0; i < timeout_s * 20; ++i) {
    if (::waitpid(pid, status, WNOHANG) == pid) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

constexpr const char* kSpinJobSpec =
    "campaign resilience-spin\n"
    "job spin\n"
    "firmware spin\n"
    "mode plain\n"
    "max-ms 100000000\n"
    "wall-budget-s 5\n";

TEST(ServiceResilience, StoppedWorkerEscalatesToAHungVerdict) {
  // SIGSTOP is the nastiest liveness failure: the worker's socket stays
  // open (no POLLHUP, no SIGCHLD) and it cannot heartbeat. Only the
  // supervision clock can notice — and SIGTERM pends on a stopped
  // process, so the ladder must reach SIGKILL.
  service::ServerOptions opts;
  opts.socket_path = temp_socket_path();
  opts.workers = 1;
  opts.quiet = true;
  opts.heartbeat_ms = 50;
  opts.heartbeat_timeout_ms = 600;
  opts.kill_grace_ms = 200;
  opts.deadline_grace_ms = 500;
  const pid_t daemon = fork_daemon(opts);

  const std::vector<pid_t> workers = children_of(daemon);
  ASSERT_EQ(workers.size(), 1u);
  ::kill(workers[0], SIGSTOP);

  service::Client client(opts.socket_path);
  std::string verdict;
  const auto t0 = std::chrono::steady_clock::now();
  const service::Outcome out = client.submit_spec(
      kSpinJobSpec,
      [&](const service::JobEvent& je) { verdict = je.verdict; });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ::kill(workers[0], SIGCONT);  // ESRCH once escalation reaped it — fine

  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(verdict, "hung");
  // Escalation, not the 5 s wall budget (let alone the 1e8 ms simulated
  // budget), ended the job.
  EXPECT_LT(wall, 30.0);

  const service::CacheStats stats = client.server_stats();
  EXPECT_GE(stats.hung_jobs, 1u);
  EXPECT_GE(stats.killed_workers, 1u);
  EXPECT_GE(stats.heartbeat_misses, 1u);

  // The respawned worker serves the next submission normally.
  const service::Outcome again = client.submit_ref("fi:attack:3:2", 3, 1);
  EXPECT_TRUE(again.error.empty()) << again.error;

  client.shutdown_server();
  int st = 0;
  EXPECT_TRUE(wait_exit(daemon, &st, 60));
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
  ::unlink(opts.socket_path.c_str());
}

TEST(ServiceResilience, OverloadShedsWithAStructuredRetryHint) {
  service::ServerOptions opts;
  opts.socket_path = temp_socket_path();
  opts.workers = 1;
  opts.quiet = true;
  // Depth 2: enough for a minimal fi submission (golden + one shard), so
  // the post-shed check below can be admitted — but not for the burst.
  opts.max_queued = 2;
  const pid_t daemon = fork_daemon(opts);

  std::string burst = "campaign burst\n";
  for (int i = 0; i < 3; ++i)
    burst += "job b" + std::to_string(i) +
             "\nfirmware qsort\nmode plain\nmax-ms 5\n";

  service::ClientOptions copts;
  copts.submit_retries = 0;
  service::Client client(opts.socket_path, copts);
  std::size_t events = 0;
  const service::Outcome out =
      client.submit_spec(burst, [&](const service::JobEvent&) { ++events; });
  EXPECT_EQ(out.error, "overloaded");
  EXPECT_GT(out.retry_after_ms, 0u);
  EXPECT_EQ(events, 0u);  // shed before dispatch: no job ever started

  const service::CacheStats stats = client.server_stats();
  EXPECT_GE(stats.shed_submissions, 1u);

  // A submission that fits is still served — shedding is not a lockout.
  const service::Outcome ok = client.submit_ref("fi:attack:3:1", 2, 1);
  EXPECT_TRUE(ok.error.empty()) << ok.error;

  client.shutdown_server();
  int st = 0;
  EXPECT_TRUE(wait_exit(daemon, &st, 60));
  ::unlink(opts.socket_path.c_str());
}

TEST(ServiceResilience, SigtermDrainWithBacklogInterruptsExactlyOnce) {
  // One worker, three 1 s spin jobs: when SIGTERM lands, job 0 is in
  // flight and jobs 1-2 are queued unsent. The contract: the in-flight
  // job finishes, the backlog is resolved without running, the client
  // gets one "done" with an interrupted report, every job event arrives
  // at most once, the daemon exits 0 and leaves no worker processes.
  service::ServerOptions opts;
  opts.socket_path = temp_socket_path();
  opts.workers = 1;
  opts.quiet = true;
  const pid_t daemon = fork_daemon(opts);
  const std::vector<pid_t> workers = children_of(daemon);
  ASSERT_EQ(workers.size(), 1u);

  std::string spec = "campaign drainy\n";
  for (int i = 0; i < 3; ++i)
    spec += "job d" + std::to_string(i) +
            "\nfirmware spin\nmode plain\nmax-ms 100000000\n"
            "wall-budget-s 1\n";

  const pid_t kid = ::fork();
  if (kid == 0) {
    try {
      service::Client c(opts.socket_path);
      std::vector<std::string> names;
      const service::Outcome o = c.submit_spec(
          spec, [&](const service::JobEvent& je) { names.push_back(je.name); });
      const std::set<std::string> unique(names.begin(), names.end());
      const bool once_each = unique.size() == names.size();
      const bool interrupted =
          o.report.find("\"interrupted\": true") != std::string::npos;
      ::_exit(o.error.empty() && once_each && interrupted && !o.ok ? 0 : 1);
    } catch (...) {
      ::_exit(1);
    }
  }

  ::usleep(400 * 1000);  // job 0 is mid-spin, 1-2 queued
  ::kill(daemon, SIGTERM);

  int st = 0;
  if (!wait_exit(kid, &st, 60)) {
    kill_and_reap(kid);
    kill_and_reap(daemon);
    ::unlink(opts.socket_path.c_str());
    FAIL() << "client never got its interrupted report";
  }
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
      << "double-reported events, missing interrupted marker, or error";

  int dst = 0;
  ASSERT_TRUE(wait_exit(daemon, &dst, 60)) << "daemon did not drain and exit";
  EXPECT_TRUE(WIFEXITED(dst) && WEXITSTATUS(dst) == 0);

  // No zombies, no orphans: every worker pid is fully gone.
  bool workers_gone = false;
  for (int i = 0; i < 100 && !workers_gone; ++i) {
    workers_gone = true;
    for (const pid_t w : workers)
      if (::kill(w, 0) == 0) workers_gone = false;
    if (!workers_gone) ::usleep(50 * 1000);
  }
  EXPECT_TRUE(workers_gone) << "a worker process survived the drain";
  ::unlink(opts.socket_path.c_str());
}

// Drains that catch an fi submission with an op still queued. The tests
// pipeline several submissions on one raw connection (Client handles one
// at a time), so the server sees them in a known order.

int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool submit_raw(int fd, std::uint64_t id, const std::string& body) {
  return service::write_line(fd, "{\"op\":\"submit\",\"id\":" +
                                     std::to_string(id) + "," + body + "}");
}

std::string spec_body(const std::string& spec) {
  return "\"spec\":" + campaign::json_quote(spec);
}

/// Reads events until `stop` returns true for one; false if the stream
/// ended or stalled first.
template <typename Stop>
bool read_events_until(service::LineReader& in, Stop stop) {
  std::string line;
  while (in.read_line(&line))
    if (stop(campaign::json_parse(line))) return true;
  return false;
}

constexpr const char* kDrainSpinSpec =
    "campaign drain-spin\n"
    "job spin\n"
    "firmware spin\n"
    "mode plain\n"
    "max-ms 100000000\n"
    "wall-budget-s 2\n";

TEST(ServiceResilience, DrainWithQueuedGoldenFailsTheSubmission) {
  // One worker busy with a spin job when SIGTERM lands, an fi golden op
  // queued behind it. The golden never runs, so there is no suite to report
  // on: the fi submission fails, and the spin job still finishes.
  service::ServerOptions opts;
  opts.socket_path = temp_socket_path();
  opts.workers = 1;
  opts.quiet = true;
  const pid_t daemon = fork_daemon(opts);
  const int fd = connect_raw(opts.socket_path);
  ASSERT_GE(fd, 0);
  service::LineReader in(fd, 60000);

  ASSERT_TRUE(submit_raw(fd, 1, spec_body(kDrainSpinSpec)));
  ASSERT_TRUE(submit_raw(fd, 2, "\"ref\":\"fi:attack:3:4\",\"seed\":1"));
  std::set<std::uint64_t> accepted;
  ASSERT_TRUE(read_events_until(in, [&](const campaign::JsonValue& m) {
    if (m.str_or("event") == "accepted") accepted.insert(m.u64_or("id", 0));
    return accepted.size() == 2;
  }));
  ::kill(daemon, SIGTERM);

  std::string fi_error;
  bool spin_done = false;
  read_events_until(in, [&](const campaign::JsonValue& m) {
    const std::string ev = m.str_or("event");
    const std::uint64_t id = m.u64_or("id", 0);
    if (ev == "error" && id == 2) fi_error = m.str_or("error");
    if (ev == "done" && id == 1) spin_done = true;
    return !fi_error.empty() && spin_done;
  });
  ::close(fd);
  EXPECT_EQ(fi_error, "server draining before the golden run started");
  EXPECT_TRUE(spin_done);

  int st = 0;
  ASSERT_TRUE(wait_exit(daemon, &st, 60)) << "daemon did not drain and exit";
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
  ::unlink(opts.socket_path.c_str());
}

TEST(ServiceResilience, DrainWithQueuedFiChunkSkipsItsFaults) {
  // One worker runs, in order: the fi golden, a short job, a spin job. The
  // golden's fault chunk queues behind the spin job, so once the short job
  // is done the chunk is queued and the spin job in flight — SIGTERM then
  // sheds the chunk. Its faults are "skipped", the report says
  // "interrupted", and every fault is either streamed once or skipped.
  service::ServerOptions opts;
  opts.socket_path = temp_socket_path();
  opts.workers = 1;
  opts.quiet = true;
  const pid_t daemon = fork_daemon(opts);
  const int fd = connect_raw(opts.socket_path);
  ASSERT_GE(fd, 0);
  service::LineReader in(fd, 60000);

  constexpr std::size_t kFaults = 4;
  ASSERT_TRUE(submit_raw(fd, 1, "\"ref\":\"fi:attack:3:4\",\"seed\":1"));
  ASSERT_TRUE(submit_raw(
      fd, 2,
      spec_body("campaign drain-short\njob short\nfirmware qsort\n"
                "mode plain\nmax-ms 5\n")));
  ASSERT_TRUE(submit_raw(fd, 3, spec_body(kDrainSpinSpec)));
  ASSERT_TRUE(read_events_until(in, [&](const campaign::JsonValue& m) {
    return m.str_or("event") == "done" && m.u64_or("id", 0) == 2;
  }));
  ::kill(daemon, SIGTERM);

  std::vector<std::string> fault_events;
  campaign::JsonValue fi_done;
  bool spin_done = false;
  read_events_until(in, [&](const campaign::JsonValue& m) {
    const std::string ev = m.str_or("event");
    const std::uint64_t id = m.u64_or("id", 0);
    if (ev == "job" && id == 1) fault_events.push_back(m.str_or("name"));
    if (ev == "done" && id == 1) fi_done = m;
    if (ev == "done" && id == 3) spin_done = true;
    return fi_done.find("report") && spin_done;
  });
  ::close(fd);
  EXPECT_TRUE(spin_done);
  ASSERT_NE(fi_done.find("report"), nullptr) << "no fi report";
  EXPECT_FALSE(fi_done.bool_or("ok", true));
  const std::string report = fi_done.str_or("report");
  EXPECT_NE(report.find("\"interrupted\": true"), std::string::npos);

  const campaign::JsonValue doc = campaign::json_parse(report);
  const campaign::JsonValue* faults = doc.find("faults");
  ASSERT_NE(faults, nullptr);
  ASSERT_EQ(faults->array.size(), kFaults);
  std::size_t skipped = 0;
  for (const campaign::JsonValue& f : faults->array)
    if (f.str_or("run_verdict") == "skipped") ++skipped;
  EXPECT_EQ(skipped, kFaults);  // the whole chunk was shed unsent
  const std::set<std::string> unique(fault_events.begin(), fault_events.end());
  EXPECT_EQ(unique.size(), fault_events.size()) << "a fault event repeated";
  EXPECT_EQ(skipped + fault_events.size(), kFaults);

  int st = 0;
  ASSERT_TRUE(wait_exit(daemon, &st, 60)) << "daemon did not drain and exit";
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
  ::unlink(opts.socket_path.c_str());
}

}  // namespace
