// Tests for the campaign service subsystem (src/service): the content-hash
// warm cache, the env-backed runner path, the NDJSON value round trip, and
// the subset/site-cache fork engine the workers execute fi chunks with.
//
// The load-bearing contracts:
//  * a job run through a WarmCache env (cached firmware/policy, pooled VP)
//    is bit-identical to a cold Runner::run_job — warm is an optimization,
//    never a behaviour,
//  * a JobResult survives the wire: the decoded golden run must drive
//    fi::suite_from_golden and fi::classify exactly like the original,
//  * repeat work hits the caches (golden results, fault-site snapshots) and
//    retires fewer instructions, observably via CacheStats,
//  * cooperative cancel skips cleanly and the aggregate report says so.
#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/aggregator.hpp"
#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dift/stats.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/hash.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

using namespace vpdift;

/// Architectural observables + trajectory-pure DIFT counters must match.
/// Cache-locality counters (decode/block hits, invalidations) are exempt:
/// a pooled VP legitimately starts a job with different cache temperature.
void expect_same_outcome(const campaign::JobResult& a,
                         const campaign::JobResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(static_cast<int>(a.run.reason), static_cast<int>(b.run.reason));
  EXPECT_EQ(a.run.exit_code, b.run.exit_code);
  EXPECT_EQ(a.run.watchdog_resets, b.run.watchdog_resets);
  EXPECT_EQ(a.run.instret, b.run.instret);
  EXPECT_EQ(a.run.uart_output, b.run.uart_output);
  EXPECT_EQ(a.run.markers, b.run.markers);
  EXPECT_EQ(a.run.sim_time.picos(), b.run.sim_time.picos());
  EXPECT_EQ(a.run.stats.lub_calls, b.run.stats.lub_calls);
  EXPECT_EQ(a.run.stats.flow_checks, b.run.stats.flow_checks);
  EXPECT_EQ(a.run.stats.bus_transactions, b.run.stats.bus_transactions);
  EXPECT_EQ(a.run.stats.mem_summary_hits, b.run.stats.mem_summary_hits);
  EXPECT_EQ(a.run.stats.dma_summary_hits, b.run.stats.dma_summary_hits);
  // Promotion events are trajectory-pure (one per plain->tainted taint
  // introduction at a fixed instruction) and must match. The per-dispatch
  // variant-hit counters are exempt: this helper also compares forked
  // tails against cold replays, and a different cache temperature
  // legitimately changes how the same instruction stream is grouped into
  // block dispatches.
  EXPECT_EQ(a.run.stats.variant_promotions, b.run.stats.variant_promotions);
}

campaign::JobSpec attack_job() {
  campaign::JobSpec job;
  job.name = "svc-attack";
  job.firmware = "attack:3";
  job.policy = "code-injection";
  job.mode = campaign::VpMode::kDift;
  job.expect = "violation";
  return job;
}

TEST(WarmEnv, RunJobThroughCacheIsBitIdenticalAndReusesTheVp) {
  const campaign::JobSpec job = attack_job();
  const campaign::JobResult cold = campaign::Runner::run_job(job);
  ASSERT_EQ(cold.verdict.rfind("violation", 0), 0u) << cold.error;

  service::WarmCache cache;
  const campaign::RunnerEnv env = cache.env();
  const campaign::JobResult warm1 = campaign::Runner::run_job(job, &env);
  const campaign::JobResult warm2 = campaign::Runner::run_job(job, &env);
  expect_same_outcome(cold, warm1);
  expect_same_outcome(cold, warm2);

  // Second run: same firmware and policy objects, same pooled VP.
  const service::CacheStats st = cache.stats();
  EXPECT_EQ(st.elf_misses, 1u);
  EXPECT_EQ(st.elf_hits, 1u);
  EXPECT_EQ(st.policy_misses, 1u);
  EXPECT_EQ(st.policy_hits, 1u);
  EXPECT_EQ(st.vp_builds, 1u);
  EXPECT_EQ(st.vp_reuses, 1u);
  // Same firmware content on the re-arm: the pooled core's translated
  // blocks stayed warm.
  EXPECT_EQ(st.translation_reuses, 1u);
}

TEST(WarmEnv, PooledVpAlternatesFlavoursWithoutCrossTalk) {
  campaign::JobSpec plain = attack_job();
  plain.name = "svc-attack-plain";
  plain.policy.clear();
  plain.mode = campaign::VpMode::kPlain;
  plain.expect.clear();
  const campaign::JobResult cold_plain = campaign::Runner::run_job(plain);
  const campaign::JobResult cold_dift = campaign::Runner::run_job(attack_job());

  service::WarmCache cache;
  const campaign::RunnerEnv env = cache.env();
  // Interleave flavours twice: each has its own pool slot, so the second
  // round reuses both, and neither contaminates the other.
  expect_same_outcome(cold_plain, campaign::Runner::run_job(plain, &env));
  expect_same_outcome(cold_dift,
                      campaign::Runner::run_job(attack_job(), &env));
  expect_same_outcome(cold_plain, campaign::Runner::run_job(plain, &env));
  expect_same_outcome(cold_dift,
                      campaign::Runner::run_job(attack_job(), &env));
  EXPECT_EQ(cache.pool().builds(), 2u);
  EXPECT_EQ(cache.pool().reuses(), 2u);
}

class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    char name[] = "/tmp/vpdift-svc-test-XXXXXX";
    const int fd = ::mkstemp(name);
    EXPECT_GE(fd, 0);
    path_ = name;
    if (fd >= 0) {
      FILE* f = ::fdopen(fd, "w");
      std::fwrite(content.data(), 1, content.size(), f);
      std::fclose(f);
    }
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void rewrite(const std::string& content) const {
    std::ofstream f(path_, std::ios::trunc);
    f << content;
  }

 private:
  std::string path_;
};

constexpr const char* kPolicyV1 =
    "# v1\nclass LO\nclass HI\nflow LO -> HI\nexec fetch LO\n";
constexpr const char* kPolicyV2 =
    "# v2\nclass LO\nclass HI\nflow LO -> HI\nexec fetch LO\n";

TEST(WarmCacheTest, ChangedPolicyByteInvalidatesOnlyThePolicyEntry) {
  TempFile policy(kPolicyV1);
  service::WarmCache cache;
  service::Executor exec(cache);

  campaign::JobSpec job = attack_job();
  job.policy = policy.path();
  job.expect.clear();  // this toy lattice detects nothing; outcome is exit

  const std::uint64_t fw_key = cache.firmware_key(job.firmware);
  const std::uint64_t pol_v1 = cache.policy_content_key(policy.path());
  const std::uint64_t job_v1 = cache.job_key(job);

  const campaign::JobResult r1 = exec.run_job(job);   // cold: miss
  const campaign::JobResult r2 = exec.run_job(job);   // warm: hit
  expect_same_outcome(r1, r2);
  service::CacheStats st = cache.stats();
  EXPECT_EQ(st.golden_cache_misses, 1u);
  EXPECT_EQ(st.golden_cache_hits, 1u);

  // One changed byte in the policy file: a different policy content key, so
  // a different job identity — but the SAME firmware key, and the old
  // result entry stays valid under its own key.
  policy.rewrite(kPolicyV2);
  EXPECT_NE(cache.policy_content_key(policy.path()), pol_v1);
  EXPECT_EQ(cache.firmware_key(job.firmware), fw_key);
  EXPECT_NE(cache.job_key(job), job_v1);

  const campaign::JobResult r3 = exec.run_job(job);
  st = cache.stats();
  EXPECT_EQ(st.golden_cache_misses, 2u);  // new identity: a miss...
  EXPECT_EQ(st.golden_cache_hits, 1u);
  EXPECT_GE(st.elf_hits, 1u);             // ...but the ELF entry still hit
  EXPECT_NE(cache.find_result(job_v1), nullptr);  // v1 result not evicted
  expect_same_outcome(r1, r3);  // the comment byte changes no behaviour
}

TEST(WarmCacheTest, SuiteKeyIsAPrefixIdentity) {
  service::WarmCache cache;
  fi::FiSuiteSpec a{"qsort", 10, 3};
  fi::FiSuiteSpec b{"qsort", 20, 3};   // more faults = same schedule prefix
  fi::FiSuiteSpec c{"qsort", 10, 4};   // different seed = different schedule
  fi::FiSuiteSpec d{"primes", 10, 3};  // different firmware
  EXPECT_EQ(cache.suite_key(a), cache.suite_key(b));
  EXPECT_NE(cache.suite_key(a), cache.suite_key(c));
  EXPECT_NE(cache.suite_key(a), cache.suite_key(d));
}

// The builtin names the campaign resolves are the names the warm cache keys
// by name: a path key would hash a file, and no file of these names exists.
TEST(WarmCacheTest, EveryBuiltinNameResolvesAndKeysByName) {
  service::WarmCache cache;
  for (const std::string name :
       {"primes", "spin", "qsort", "dhrystone", "sha256", "sha512",
        "simple-sensor", "rtos-tasks", "immobilizer", "immobilizer-vulnerable",
        "code-reuse", "attack:3"}) {
    EXPECT_TRUE(campaign::is_builtin_firmware(name)) << name;
    EXPECT_NO_THROW(campaign::resolve_firmware(name)) << name;
    EXPECT_EQ(cache.firmware_key(name),
              service::fnv1a64(name, service::fnv1a64("builtin-fw:")))
        << name;
  }
  // Each builtin policy resolves against a firmware carrying its symbols.
  for (const auto& [name, firmware] :
       std::vector<std::pair<std::string, std::string>>{
           {"", "primes"},
           {"permissive", "primes"},
           {"code-injection", "attack:3"},
           {"immobilizer", "immobilizer"},
           {"immobilizer-per-byte", "immobilizer"}}) {
    EXPECT_TRUE(campaign::is_builtin_policy(name)) << name;
    EXPECT_NO_THROW(campaign::resolve_policy(
        name, campaign::resolve_firmware(firmware)))
        << name;
    EXPECT_EQ(cache.policy_content_key(name),
              service::fnv1a64(name, service::fnv1a64("builtin-policy:")))
        << name;
  }
  EXPECT_FALSE(campaign::is_builtin_firmware("fw.elf"));
  EXPECT_FALSE(campaign::is_builtin_policy("file:demo.pol"));
}

TEST(SuiteFromGolden, MatchesBuildSuiteExactly) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.n_faults = 6;
  spec.seed = 11;

  const fi::FiSuite direct = fi::build_suite(spec);
  const campaign::JobResult golden =
      campaign::Runner::run_job(fi::golden_job(spec));
  const fi::FiSuite fed = fi::suite_from_golden(spec, golden);

  expect_same_outcome(direct.golden, fed.golden);
  EXPECT_EQ(direct.golden_us, fed.golden_us);
  EXPECT_EQ(direct.wdt_us, fed.wdt_us);
  ASSERT_EQ(direct.faults.size(), fed.faults.size());
  for (std::size_t i = 0; i < direct.faults.size(); ++i) {
    EXPECT_EQ(direct.faults[i].describe(), fed.faults[i].describe()) << i;
    EXPECT_EQ(direct.jobs.jobs[i].name, fed.jobs.jobs[i].name) << i;
  }
}

TEST(Protocol, JobResultSurvivesTheWire) {
  // A violation run (DIFT counters, violation record) and a clean exit run
  // (UART output, markers) both round-trip with full fidelity.
  for (const campaign::JobSpec& job :
       {attack_job(), fi::golden_job({"attack:3", 0, 1})}) {
    const campaign::JobResult orig = campaign::Runner::run_job(job);
    const std::string wire = service::job_result_to_json(orig);
    const campaign::JobResult back =
        service::job_result_from_json(campaign::json_parse(wire));

    EXPECT_EQ(orig.name, back.name);
    EXPECT_EQ(orig.attempts, back.attempts);
    EXPECT_EQ(orig.error, back.error);
    expect_same_outcome(orig, back);
    // The full DIFT counter block, not just the trajectory-pure subset.
    EXPECT_EQ(dift::to_json(orig.run.stats), dift::to_json(back.run.stats));
    EXPECT_EQ(orig.run.violation_pc, back.run.violation_pc);
    EXPECT_EQ(orig.run.violation_where, back.run.violation_where);
    EXPECT_EQ(orig.run.violation_message, back.run.violation_message);
    EXPECT_EQ(static_cast<int>(orig.run.violation_kind),
              static_cast<int>(back.run.violation_kind));
    EXPECT_EQ(orig.run.recorded_violations.size(),
              back.run.recorded_violations.size());
  }
}

// Every DiftStats counter crosses the wire under its own name: each field
// gets a distinct value, so a dropped or swapped counter cannot go unseen.
TEST(Protocol, EveryDiftCounterSurvivesTheWire) {
  campaign::JobResult orig;
  std::vector<std::uint64_t> want;
  orig.run.stats.for_each([&](const char*, std::uint64_t& v) {
    v = 1000003 * (want.size() + 1) + want.size();
    want.push_back(v);
  });
  // for_each visits every member: DiftStats holds nothing but counters.
  ASSERT_EQ(want.size(), sizeof(dift::DiftStats) / sizeof(std::uint64_t));

  const campaign::JobResult back = service::job_result_from_json(
      campaign::json_parse(service::job_result_to_json(orig)));
  std::vector<std::uint64_t> got;
  back.run.stats.for_each(
      [&](const char*, std::uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(back.run.stats.variant_promotions,
            orig.run.stats.variant_promotions);
}

// Every CacheStats counter crosses the wire under its own name, the same
// check as for DiftStats above.
TEST(Protocol, EveryCacheCounterSurvivesTheWire) {
  service::CacheStats orig;
  std::vector<std::uint64_t> want;
  orig.for_each([&](const char*, std::uint64_t& v) {
    v = 1000003 * (want.size() + 1) + want.size();
    want.push_back(v);
  });
  // for_each visits every member: CacheStats holds nothing but counters.
  ASSERT_EQ(want.size(), sizeof(service::CacheStats) / sizeof(std::uint64_t));

  const service::CacheStats back = service::cache_stats_from_json(
      campaign::json_parse(orig.to_json()));
  std::vector<std::uint64_t> got;
  back.for_each([&](const char*, std::uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(back.heartbeat_misses, orig.heartbeat_misses);
}

TEST(Protocol, DecodedGoldenDrivesTheSuiteLikeTheOriginal) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.n_faults = 5;
  spec.seed = 9;
  const campaign::JobResult golden =
      campaign::Runner::run_job(fi::golden_job(spec));
  const campaign::JobResult decoded = service::job_result_from_json(
      campaign::json_parse(service::job_result_to_json(golden)));

  const fi::FiSuite a = fi::suite_from_golden(spec, golden);
  const fi::FiSuite b = fi::suite_from_golden(spec, decoded);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i)
    EXPECT_EQ(a.faults[i].describe(), b.faults[i].describe()) << i;

  // classify() consults the golden's verdict, exit code, uart output,
  // markers and watchdog count — all must have survived the wire.
  const std::vector<campaign::JobResult> results = fi::run_forked(a, 1);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(fi::classify(a.golden, results[i]),
              fi::classify(b.golden, results[i]))
        << i;
}

TEST(ForkSubset, ColdMatchesRunForkedThenWarmSkipsTheCursor) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.n_faults = 8;
  spec.seed = 9;
  const fi::FiSuite suite = fi::build_suite(spec);
  const std::vector<campaign::JobResult> reference =
      fi::run_forked(suite, 1);

  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < suite.faults.size(); ++i) all.push_back(i);

  fi::FiSiteCache cache;
  fi::ForkStats cold_stats;
  const std::vector<campaign::JobResult> cold =
      fi::run_forked_subset(suite, all, {}, &cold_stats, &cache);
  ASSERT_EQ(cold.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(suite.jobs.jobs[i].name);
    expect_same_outcome(reference[i], cold[i]);
  }
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_GT(cache.misses, 0u);
  EXPECT_TRUE(cache.have_golden);

  // Warm: every site is served from the cache — no cursor, no golden
  // instructions, strictly less work — and the results stay identical.
  fi::ForkStats warm_stats;
  const std::vector<campaign::JobResult> warm =
      fi::run_forked_subset(suite, all, {}, &warm_stats, &cache);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(suite.jobs.jobs[i].name);
    expect_same_outcome(reference[i], warm[i]);
  }
  EXPECT_GT(cache.hits, 0u);
  EXPECT_EQ(warm_stats.golden_instret, 0u);
  EXPECT_LT(warm_stats.executed(), cold_stats.executed());
}

TEST(ForkSubset, PartialIndicesFillOnlyTheirSlots) {
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.n_faults = 6;
  spec.seed = 4;
  const fi::FiSuite suite = fi::build_suite(spec);
  const std::vector<campaign::JobResult> reference =
      fi::run_forked(suite, 1);

  const std::vector<campaign::JobResult> half =
      fi::run_forked_subset(suite, {1, 3, 5});
  ASSERT_EQ(half.size(), suite.faults.size());
  for (std::size_t i : {1u, 3u, 5u}) expect_same_outcome(reference[i], half[i]);
  for (std::size_t i : {0u, 2u, 4u}) EXPECT_TRUE(half[i].name.empty()) << i;

  EXPECT_THROW(fi::run_forked_subset(suite, {suite.faults.size()}),
               std::invalid_argument);
}

TEST(ExecutorTest, WarmGoldenResubmissionIsFree) {
  service::WarmCache cache;
  service::Executor exec(cache);
  fi::FiSuiteSpec spec;
  spec.benchmark = "attack:3";
  spec.n_faults = 4;
  spec.seed = 7;

  const campaign::JobResult g1 = exec.fi_golden(spec);
  const service::CacheStats after_cold = cache.stats();
  EXPECT_EQ(after_cold.golden_cache_hits, 0u);
  EXPECT_EQ(after_cold.golden_cache_misses, 1u);
  EXPECT_GT(after_cold.executed_instret, 0u);

  const campaign::JobResult g2 = exec.fi_golden(spec);
  const service::CacheStats after_warm = cache.stats();
  EXPECT_EQ(after_warm.golden_cache_hits, 1u);
  EXPECT_EQ(after_warm.golden_cache_misses, 1u);
  // A cache hit retires nothing.
  EXPECT_EQ(after_warm.executed_instret, after_cold.executed_instret);
  expect_same_outcome(g1, g2);
}

TEST(CancelTest, PresetCancelSkipsEveryJobAndTheReportSaysInterrupted) {
  campaign::CampaignSpec spec;
  spec.name = "cancelled";
  for (int i = 0; i < 3; ++i) {
    campaign::JobSpec j;
    j.name = "job" + std::to_string(i);
    j.firmware = "primes";
    spec.jobs.push_back(j);
  }
  std::atomic<bool> cancel{true};
  campaign::RunnerOptions opts;
  opts.cancel = &cancel;
  std::size_t done_calls = 0;
  opts.on_done = [&](const campaign::JobResult&) { ++done_calls; };
  campaign::Runner runner(opts);
  const std::vector<campaign::JobResult> results = runner.run(spec);

  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.verdict, "skipped");
    EXPECT_FALSE(r.ok);
  }
  EXPECT_EQ(done_calls, 0u);  // skipped jobs never reach on_done

  campaign::Aggregator agg;
  agg.set_interrupted(true);
  EXPECT_FALSE(agg.all_ok());
  const std::string json = agg.to_json(spec.name, 1, 0.0);
  EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Client protocol: await_done's event filter on a shared connection.

std::string temp_socket_path() {
  char tmpl[] = "/tmp/vpdift-svc-sock-XXXXXX";
  const int fd = ::mkstemp(tmpl);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  ::unlink(tmpl);
  return tmpl;
}

/// Binds + listens on an AF_UNIX socket; -1 on failure.
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

/// Accepts one client, reads its request line, plays back `script`.
void run_scripted_server(int lfd, const std::string& script) {
  const int cfd = ::accept(lfd, nullptr, nullptr);
  if (cfd < 0) return;
  service::LineReader in(cfd);
  std::string line;
  in.read_line(&line);  // the submit request (the client's id is 1)
  std::size_t off = 0;
  while (off < script.size()) {
    const ssize_t n =
        ::write(cfd, script.data() + off, script.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  // Close right away: buffered lines still reach the client, then EOF.
  // (Waiting for the client to hang up would deadlock against join().)
  ::close(cfd);
}

TEST(ClientProtocol, OtherSubmissionsEventsIncludingErrorsAreIgnored) {
  // Regression: an unrelated "error" event (another submission on the same
  // connection, different id) used to terminate await_done with the wrong
  // error. Only matching-id events — errors included — belong to us.
  const std::string sock = temp_socket_path();
  const int lfd = bind_listen(sock);
  ASSERT_GE(lfd, 0);
  const std::string script =
      "{\"event\":\"error\",\"id\":999,\"error\":\"someone else\"}\n"
      "{\"event\":\"accepted\",\"id\":1,\"jobs\":2}\n"
      "{\"event\":\"done\",\"id\":42,\"ok\":false,\"report\":\"other\"}\n"
      "{\"event\":\"job\",\"id\":1,\"name\":\"j0\",\"verdict\":\"exit\","
      "\"ok\":true}\n"
      "{\"event\":\"done\",\"id\":1,\"ok\":true,\"report\":\"mine\"}\n";
  std::thread server([&] { run_scripted_server(lfd, script); });

  service::Client client(sock);
  std::vector<std::string> seen;
  const service::Outcome out = client.submit_ref(
      "fi:attack:3:2", 1, 0,
      [&](const service::JobEvent& je) { seen.push_back(je.name); });
  server.join();
  ::close(lfd);
  ::unlink(sock.c_str());

  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.report, "mine");
  EXPECT_EQ(out.jobs, 2u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "j0");
}

TEST(ClientProtocol, ConnectionLevelIdZeroErrorEndsTheSubmission) {
  // id 0 is the server's connection-level reply (e.g. a garbled request
  // line): no submission-scoped event will ever follow, so it is fatal.
  const std::string sock = temp_socket_path();
  const int lfd = bind_listen(sock);
  ASSERT_GE(lfd, 0);
  std::thread server([&] {
    run_scripted_server(
        lfd, "{\"event\":\"error\",\"id\":0,\"error\":\"garbled line\"}\n");
  });

  service::Client client(sock);
  const service::Outcome out = client.submit_ref("fi:attack:3:2", 1, 0);
  server.join();
  ::close(lfd);
  ::unlink(sock.c_str());
  EXPECT_EQ(out.error, "garbled line");
}

// ---------------------------------------------------------------------------
// Daemon robustness: the poll() loop against crashing workers and fan-outs
// larger than the socketpair buffers.

/// Forks a quiet daemon on `sock` and waits until it answers a ping.
pid_t fork_daemon(const std::string& sock, std::size_t workers) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    service::ServerOptions opts;
    opts.socket_path = sock;
    opts.workers = workers;
    opts.quiet = true;
    ::_exit(service::run_server(opts));
  }
  bool up = false;
  for (int i = 0; i < 200 && !up; ++i) {
    ::usleep(50 * 1000);
    try {
      service::Client probe(sock);
      up = probe.ping();
    } catch (const std::exception&) {
    }
  }
  EXPECT_TRUE(up) << "daemon did not come up";
  return pid;
}

/// Direct children of `parent`, via /proc/<pid>/stat's ppid field.
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
    const std::size_t rp = content.rfind(')');  // comm may contain spaces
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

/// waitpid with a deadline, so a wedged daemon fails the test instead of
/// hanging the whole suite.
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

TEST(ServiceDaemon, WorkerCrashMidSubmissionNeitherWedgesNorLosesTheDaemon) {
  // Regression: poll() could report the self-pipe (SIGCHLD) and a dead
  // worker's POLLHUP in the same snapshot; handle_signals() respawned the
  // worker first, then the stale POLLHUP triggered a blocking read on the
  // FRESH worker's silent socket — wedging the daemon forever.
  const std::string sock = temp_socket_path();
  const pid_t daemon = fork_daemon(sock, 2);

  // Submit from a separate process so the kill lands mid-flight: the kid
  // writes one byte down `ready` at its first streamed job event, i.e.
  // while the fault chunks are running.
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t kid = ::fork();
  if (kid == 0) {
    ::close(ready[0]);
    try {
      service::Client c(sock);
      const service::Outcome o = c.submit_ref(
          "fi:attack:3:40", 5, 2, [&](const service::JobEvent&) {
            if (ready[1] < 0) return;
            (void)!::write(ready[1], "j", 1);
            ::close(ready[1]);
            ready[1] = -1;
          });
      // Either a report (crash verdicts included) or a clean error event:
      // what matters is that the daemon answered at all.
      ::_exit(!o.report.empty() || !o.error.empty() ? 0 : 1);
    } catch (...) {
      ::_exit(1);
    }
  }
  ::close(ready[1]);
  char byte = 0;
  EXPECT_EQ(::read(ready[0], &byte, 1), 1) << "no job event streamed";
  ::close(ready[0]);
  for (const pid_t w : children_of(daemon)) ::kill(w, SIGKILL);

  int st = 0;
  if (!wait_exit(kid, &st, 120)) {
    kill_and_reap(kid);
    kill_and_reap(daemon);
    ::unlink(sock.c_str());
    FAIL() << "daemon wedged after a worker crash";
  }
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);

  // The daemon must have respawned its workers: a fresh submission works
  // end to end.
  service::Client c2(sock);
  const service::Outcome again = c2.submit_ref("fi:attack:3:4", 6, 2);
  EXPECT_TRUE(again.error.empty()) << again.error;
  EXPECT_FALSE(again.report.empty());
  c2.shutdown_server();
  int dst = 0;
  EXPECT_TRUE(wait_exit(daemon, &dst, 60));
  ::unlink(sock.c_str());
}

TEST(ServiceDaemon, SubmissionRightAfterIdleWorkersDieRunsOnTheRespawns) {
  // Regression: an op sent to a worker that had just died never reached
  // it, yet the daemon failed it as "worker crashed" instead of running it
  // on the respawned worker. Killing idle workers and submitting at once
  // races the submission against the deaths; a few rounds cover both
  // orders.
  const std::string sock = temp_socket_path();
  const pid_t daemon = fork_daemon(sock, 2);
  service::Client c(sock);
  for (int round = 0; round < 6; ++round) {
    for (const pid_t w : children_of(daemon)) ::kill(w, SIGKILL);
    const service::Outcome o = c.submit_ref("fi:attack:3:4", 7, 2);
    EXPECT_TRUE(o.error.empty()) << "round " << round << ": " << o.error;
    EXPECT_TRUE(o.ok) << "round " << round;
    EXPECT_FALSE(o.report.empty()) << "round " << round;
  }
  c.shutdown_server();
  int st = 0;
  EXPECT_TRUE(wait_exit(daemon, &st, 60));
  ::unlink(sock.c_str());
}

TEST(ServiceDaemon, SingleWorkerFanOutLargerThanThePipesCompletes) {
  // Regression: submit_spec used to fan out every job op with a blocking
  // write while the worker blocked writing a large reply the parent wasn't
  // reading — once both socketpair buffers filled, parent and worker
  // deadlocked permanently. 16 jobs x 48KiB names ≈ 768KiB of ops, far
  // beyond the ~208KiB a Unix socketpair buffers per direction.
  const std::string sock = temp_socket_path();
  const pid_t daemon = fork_daemon(sock, 1);

  std::string spec = "campaign big-fanout\n";
  for (int i = 0; i < 16; ++i) {
    spec += "job j" + std::to_string(i) + std::string(48 * 1024, 'x') + "\n";
    spec += "  firmware attack:3\n  policy code-injection\n  mode dift\n";
    spec += "  expect violation\n";
  }

  const pid_t kid = ::fork();
  if (kid == 0) {
    try {
      service::Client c(sock);
      std::size_t events = 0;
      const service::Outcome o =
          c.submit_spec(spec, [&](const service::JobEvent&) { ++events; });
      ::_exit(o.error.empty() && o.ok && events == 16 ? 0 : 1);
    } catch (...) {
      ::_exit(1);
    }
  }
  int st = 0;
  if (!wait_exit(kid, &st, 240)) {
    kill_and_reap(kid);
    kill_and_reap(daemon);
    ::unlink(sock.c_str());
    FAIL() << "single-worker fan-out deadlocked";
  }
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
      << "submission failed or streamed the wrong job count";

  service::Client c(sock);
  c.shutdown_server();
  EXPECT_TRUE(wait_exit(daemon, &st, 60));
  ::unlink(sock.c_str());
}

TEST(HashTest, Fnv1aIsStableAndFileHashTracksContent) {
  // Pinned value: FNV-1a 64 of "a" — a canary against accidental algorithm
  // or seed changes, which would silently cold every persistent cache key.
  EXPECT_EQ(service::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(service::fnv1a64("ab"), service::fnv1a64("ba"));
  EXPECT_EQ(service::hash_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");

  TempFile f("hello");
  const std::uint64_t h1 = service::hash_file(f.path());
  f.rewrite("hellp");
  EXPECT_NE(service::hash_file(f.path()), h1);
  f.rewrite("hello");
  EXPECT_EQ(service::hash_file(f.path()), h1);
  EXPECT_THROW(service::hash_file("/nonexistent/vpdift"), std::runtime_error);
}

}  // namespace
