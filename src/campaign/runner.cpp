#include "campaign/runner.hpp"

#include <chrono>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>

#include "campaign/thread_pool.hpp"
#include "dift/policy_parser.hpp"
#include "fw/attacks.hpp"
#include "fw/benchmarks.hpp"
#include "fw/immobilizer.hpp"
#include "rvasm/elf.hpp"
#include "vp/scenarios.hpp"

namespace vpdift::campaign {

namespace {

const soc::AesKey kDemoPin = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                              0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/// The builtin firmware by name ("attack:N" is the one builtin family
/// outside the table). resolve_firmware and is_builtin_firmware both read
/// it, so what resolves by name and what the service keys by name agree.
struct BuiltinFirmware {
  const char* name;
  rvasm::Program (*make)();
};
const BuiltinFirmware kBuiltinFirmware[] = {
    {"primes", [] { return fw::make_primes(10000); }},
    {"spin", [] { return fw::make_spin(); }},
    {"qsort", [] { return fw::make_qsort(5000, 1); }},
    {"dhrystone", [] { return fw::make_dhrystone(20000); }},
    {"sha256", [] { return fw::make_sha256(1024, 64); }},
    {"sha512", [] { return fw::make_sha512(1024, 16); }},
    {"simple-sensor", [] { return fw::make_simple_sensor(20); }},
    {"rtos-tasks", [] { return fw::make_rtos_tasks(100, 200); }},
    {"immobilizer",
     [] {
       return fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kDemoPin, 5);
     }},
    {"immobilizer-vulnerable",
     [] {
       return fw::make_immobilizer(fw::ImmoVariant::kVulnerableDump, kDemoPin,
                                   5);
     }},
    {"code-reuse", [] { return fw::make_code_reuse_attack().program; }},
};

/// The builtin policy scenarios by name, read by resolve_policy and
/// is_builtin_policy (the empty name, "no policy", is builtin too).
struct BuiltinPolicy {
  const char* name;
  vp::scenarios::PolicyBundle (*make)(const rvasm::Program&);
};
const BuiltinPolicy kBuiltinPolicies[] = {
    {"permissive",
     [](const rvasm::Program&) {
       return vp::scenarios::make_permissive_policy();
     }},
    {"code-injection",
     [](const rvasm::Program& p) {
       return vp::scenarios::make_code_injection_policy(p);
     }},
    {"immobilizer",
     [](const rvasm::Program& p) {
       return vp::scenarios::make_immobilizer_policy(p, /*per_byte_pin=*/false);
     }},
    {"immobilizer-per-byte",
     [](const rvasm::Program& p) {
       return vp::scenarios::make_immobilizer_policy(p, /*per_byte_pin=*/true);
     }},
};

template <typename Entry, std::size_t N>
const Entry* find_builtin(const Entry (&table)[N], const std::string& name) {
  for (const Entry& e : table)
    if (name == e.name) return &e;
  return nullptr;
}

}  // namespace

const soc::AesKey& demo_pin() { return kDemoPin; }

bool is_builtin_firmware(const std::string& name) {
  return find_builtin(kBuiltinFirmware, name) || name.rfind("attack:", 0) == 0;
}

bool is_builtin_policy(const std::string& name) {
  return name.empty() || find_builtin(kBuiltinPolicies, name);
}

ResolvedPolicy resolve_policy(const std::string& name,
                              const rvasm::Program& program) {
  ResolvedPolicy r;
  if (name.empty()) return r;
  if (const BuiltinPolicy* b = find_builtin(kBuiltinPolicies, name)) {
    r.bundle.emplace(b->make(program));
    return r;
  }
  // Anything else is a policy file (optionally "file:PATH").
  const std::string path = name.rfind("file:", 0) == 0 ? name.substr(5) : name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open policy file: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  r.file.emplace(dift::PolicySpec::parse(buf.str(), &program.symbols));
  return r;
}

/// The attack firmwares come with a canonical attacker byte stream; a spec
/// file that names them without an explicit uart-input gets it by default
/// (otherwise the firmware blocks on the UART and idles to its timeout).
std::string default_uart_input(const std::string& firmware) {
  if (firmware == "code-reuse") return fw::make_code_reuse_attack().uart_input;
  if (firmware.rfind("attack:", 0) == 0) {
    std::int32_t id = 0;
    if (parse_i32(firmware.substr(7), &id)) return fw::make_attack(id).uart_input;
  }
  return {};
}

std::string verdict_of(const vp::RunResult& run) {
  switch (run.reason) {
    case vp::ExitReason::kViolation:
      return std::string("violation:") + dift::to_string(run.violation_kind);
    case vp::ExitReason::kExit:
      return "exit:" + std::to_string(run.exit_code);
    case vp::ExitReason::kWallTimeout:
      return "wall-timeout";
    case vp::ExitReason::kWatchdogReset:
      return "watchdog-reset";
    case vp::ExitReason::kTrap:
      return "trap";
    case vp::ExitReason::kSimTimeout:
      return "timeout";
    case vp::ExitReason::kUnknown:
      // A decoded foreign reason (newer peer); surface the raw name instead
      // of silently reclassifying it as one of ours.
      return "unknown(" + run.reason_raw + ")";
  }
  return "?";
}

namespace {

/// Watches the host clock from inside the simulation: between CPU quanta it
/// wakes every simulated millisecond and stops the run once the wall-clock
/// deadline passed. Granularity is one quantum / one simulated ms, so a
/// runaway job overshoots its budget by at most a few scheduler turns.
sysc::Task wall_guard(sysc::Simulation& sim,
                      std::chrono::steady_clock::time_point deadline,
                      bool* fired) {
  for (;;) {
    co_await sim.delay(sysc::Time::ms(1));
    if (sim.stop_requested()) co_return;
    if (std::chrono::steady_clock::now() >= deadline) {
      *fired = true;
      sim.stop();
      co_return;
    }
  }
}

/// Publishes the core's live retirement counter every simulated millisecond.
/// A pure observer: it reads state and stores to an atomic, so the
/// simulation's event order and the architectural execution are unchanged —
/// results stay bit-identical with and without it.
template <typename VpT>
sysc::Task progress_guard(sysc::Simulation& sim, VpT& v,
                          std::atomic<std::uint64_t>* out) {
  for (;;) {
    co_await sim.delay(sysc::Time::ms(1));
    out->store(v.core().instret(), std::memory_order_relaxed);
    if (sim.stop_requested()) co_return;
  }
}

template <typename VpT>
JobResult execute_once(const JobSpec& job, const RunnerEnv* env) {
  JobResult res;
  res.name = job.name;

  const rvasm::Program program =
      job.make_program                   ? job.make_program()
      : env && env->resolve_firmware     ? env->resolve_firmware(job.firmware)
                                         : resolve_firmware(job.firmware);
  const std::string uart_input =
      !job.uart_input.empty() || job.make_program
          ? job.uart_input
          : default_uart_input(job.firmware);

  vp::VpConfig cfg;
  if (job.make_config) {
    cfg = job.make_config();
  } else if (job.engine_ecu) {
    cfg.with_engine_ecu = true;
    cfg.engine_pin = kDemoPin;
    cfg.engine_period = sysc::Time::ms(1);
  }

  bool wall_fired = false;  // outlives the VP (the guard coroutine reads it)
  // Warm path: a pooled VP is reset + re-armed; cold path builds one here.
  std::unique_ptr<VpT> local;
  VpT* vp = nullptr;
  if (env && env->pool) {
    vp = &env->pool->acquire<VpT>(cfg, program_content_key(program));
  } else {
    local = std::make_unique<VpT>(cfg);
    vp = local.get();
  }
  VpT& v = *vp;
  v.load_firmware(program);
  std::shared_ptr<const ResolvedPolicy> cached_policy;
  ResolvedPolicy owned_policy;
  const ResolvedPolicy* policy = &owned_policy;
  if (env && env->resolve_policy) {
    cached_policy = env->resolve_policy(job.policy, program);
    if (cached_policy) policy = cached_policy.get();
  } else {
    owned_policy = resolve_policy(job.policy, program);
  }
  if (const auto* p = policy->policy()) v.apply_policy(*p);
  if (job.analyze) {
    // Static pre-pass: the lint report rides on the result. The service
    // env supplies a content-hash cache here.
    std::shared_ptr<const sa::AnalysisResult> analysis;
    if (env && env->resolve_analysis)
      analysis = env->resolve_analysis(job.firmware, job.policy, program,
                                       policy->policy(), cfg.ram_size);
    if (!analysis) {
      sa::AnalyzeOptions aopts;
      aopts.ram_size = cfg.ram_size;
      analysis = std::make_shared<sa::AnalysisResult>(
          sa::analyze(program, policy->policy(), aopts));
    }
    res.analysis = std::move(analysis);
  }
  if (job.mode == VpMode::kMonitor) v.set_monitor_mode(true);
  if (!uart_input.empty()) v.uart().feed_input(uart_input);
  // Fault-injection (or any other) setup runs after the image, policy and
  // UART stream are in place but before simulated time starts.
  if constexpr (std::is_same_v<VpT, vp::VpDift>) {
    if (job.pre_run_dift) job.pre_run_dift(v);
  } else {
    if (job.pre_run_plain) job.pre_run_plain(v);
  }
  if (job.wall_budget_s > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(job.wall_budget_s));
    v.sim().spawn(wall_guard(v.sim(), deadline, &wall_fired));
  }
  if (env && env->progress) {
    env->progress->store(0, std::memory_order_relaxed);
    v.sim().spawn(progress_guard(v.sim(), v, env->progress));
  }

  res.run = v.run(sysc::Time::ms(job.max_ms));
  if (env && env->progress)
    env->progress->store(res.run.instret, std::memory_order_relaxed);

  // The VP cannot tell a wall-budget stop from a sim-budget one (both end the
  // simulation from outside the core); reclassify using the guard's flag.
  if (wall_fired && res.run.reason == vp::ExitReason::kSimTimeout)
    res.run.reason = vp::ExitReason::kWallTimeout;

  res.verdict = verdict_of(res.run);
  res.ok = verdict_matches(job.expect, res.verdict);
  return res;
}

}  // namespace

std::uint64_t program_content_key(const rvasm::Program& program) {
  // FNV-1a64, seeded with a domain string. Must stay in sync with
  // service::WarmCache::program_key, which delegates here.
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix_bytes = [&](const void* p, std::size_t n) {
    const auto* s = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ s[i]) * kPrime;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * kPrime;
  };
  mix_bytes("program:", 8);
  mix_u64(program.entry);
  for (const auto& seg : program.segments) {
    mix_u64(seg.base);
    mix_bytes(seg.bytes.data(), seg.bytes.size());
  }
  return h;
}

template <typename VpT>
VpT& VpPool::acquire(const vp::VpConfig& cfg, std::uint64_t fw_key) {
  std::unique_ptr<VpT>* slot;
  std::uint64_t* last_key;
  if constexpr (std::is_same_v<VpT, vp::VpDift>) {
    slot = &dift_;
    last_key = &dift_fw_key_;
  } else {
    slot = &plain_;
    last_key = &plain_fw_key_;
  }
  if (*slot && vp::config_equivalent((*slot)->config(), cfg)) {
    // Unchanged firmware content → the translated blocks stay valid after
    // the re-arm reloads the identical bytes; keep them warm. (The reload
    // moves the code-write epoch, so each block compares its raw bytes on
    // its next entry and a key collision degrades to a correctness-
    // preserving rebuild-on-mismatch.)
    const bool warm_code = fw_key != 0 && fw_key == *last_key;
    (*slot)->reset(warm_code);
    ++reuses_;
    if (warm_code) ++translation_reuses_;
  } else {
    *slot = std::make_unique<VpT>(cfg);
    ++builds_;
  }
  *last_key = fw_key;
  return **slot;
}

template vp::Vp& VpPool::acquire<vp::Vp>(const vp::VpConfig&, std::uint64_t);
template vp::VpDift& VpPool::acquire<vp::VpDift>(const vp::VpConfig&,
                                                 std::uint64_t);

bool verdict_matches(const std::string& expect, const std::string& verdict) {
  // Crashes never satisfy anything; neither do hangs — "hung" means a
  // supervisor had to kill the run, which no expectation can legitimately
  // ask for (a job that wants a stuck firmware bounded should expect
  // "wall-timeout" under a wall budget instead).
  if (verdict == "crash" || verdict == "hung") return false;
  if (expect.empty()) return true;
  if (expect == "exit") return verdict.rfind("exit:", 0) == 0;
  if (expect == "violation") return verdict.rfind("violation:", 0) == 0;
  return verdict == expect;
}

rvasm::Program resolve_firmware(const std::string& name) {
  if (const BuiltinFirmware* b = find_builtin(kBuiltinFirmware, name))
    return b->make();
  if (name.rfind("attack:", 0) == 0) {
    std::int32_t id = 0;
    if (!parse_i32(name.substr(7), &id))
      throw std::invalid_argument("bad attack id in '" + name + "'");
    return fw::make_attack(id).program;
  }
  return rvasm::load_elf32_file(name);  // throws ElfError if not loadable
}

bool deterministic_hang(const std::vector<AttemptRecord>& history) {
  if (history.size() < 2) return false;
  const auto expired = [](const AttemptRecord& r) {
    return r.verdict == "wall-timeout" || r.verdict == "hung";
  };
  const AttemptRecord& prev = history[history.size() - 2];
  const AttemptRecord& last = history.back();
  return expired(prev) && expired(last) && prev.instret == last.instret;
}

std::chrono::milliseconds retry_backoff(int attempt, std::uint64_t seed) {
  if (attempt < 1) attempt = 1;
  const std::uint64_t base = 25ull << std::min(attempt - 1, 4);  // cap 400 ms
  // splitmix64 of (seed, attempt): deterministic jitter without touching any
  // global RNG state (reproducible runs stay reproducible).
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  // [0.75 * base, 1.25 * base]
  return std::chrono::milliseconds(base * 3 / 4 + z % (base / 2 + 1));
}

JobResult Runner::run_job(const JobSpec& job, const RunnerEnv* env) {
  JobResult res;
  std::vector<AttemptRecord> history;
  const auto t0 = std::chrono::steady_clock::now();
  const int max_attempts = job.retries + 1;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    try {
      res = job.mode == VpMode::kPlain ? execute_once<vp::Vp>(job, env)
                                       : execute_once<vp::VpDift>(job, env);
    } catch (const std::exception& e) {
      res = JobResult{};
      res.name = job.name;
      res.verdict = "crash";
      res.error = e.what();
    } catch (...) {
      // A worker must never let anything escape — an uncaught throw on a
      // pool thread would terminate the whole campaign process.
      res = JobResult{};
      res.name = job.name;
      res.verdict = "crash";
      res.error = "non-std exception";
    }
    history.push_back({res.verdict, res.error, res.run.instret});
    res.attempts = attempt;
    // Retries absorb crashes and UNexpected deadline expiries (a transiently
    // overloaded host can wall-time-out a healthy job). An expected
    // wall-timeout — or any other satisfied verdict — is final.
    const bool deadline_expired =
        !res.ok && (res.verdict == "wall-timeout" || res.verdict == "hung");
    if (res.verdict != "crash" && !deadline_expired) break;
    if (deadline_expired && deterministic_hang(history)) {
      // Identical retirement count at the deadline twice in a row: the job
      // is stuck at the same place every time. Stop burning budget on it and
      // say so — "hung" is terminal (verdict_matches always fails it).
      res.verdict = "hung";
      res.ok = false;
      if (res.error.empty())
        res.error = "deterministic hang: " + std::to_string(res.run.instret) +
                    " instructions at deadline on consecutive attempts";
      break;
    }
    if (attempt < max_attempts) {
      // FNV-1a of the job name seeds the jitter: two different jobs back
      // off on different schedules, the same job backs off reproducibly.
      std::uint64_t seed = 0xcbf29ce484222325ull;
      for (const char c : job.name)
        seed = (seed ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      std::this_thread::sleep_for(retry_backoff(attempt, seed));
    }
  }
  res.history = std::move(history);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

std::vector<JobResult> Runner::run(const CampaignSpec& spec) {
  std::vector<JobResult> results(spec.jobs.size());
  const auto cancelled = [this] {
    return opts_.cancel && opts_.cancel->load(std::memory_order_relaxed);
  };
  const auto skip = [&](std::size_t i) {
    results[i].name = spec.jobs[i].name;
    results[i].verdict = "skipped";
  };
  if (opts_.jobs <= 1) {
    // Serial reference path: same thread, same order as the spec.
    // Environments (warm pools, cached resolvers) hold single-threaded
    // state, so this is the only path that honours opts_.env.
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
      if (cancelled()) {
        skip(i);
        continue;
      }
      results[i] = run_job(spec.jobs[i], opts_.env);
      if (opts_.on_done) opts_.on_done(results[i]);
    }
    return results;
  }

  std::mutex done_m;
  ThreadPool pool(opts_.jobs);
  pool.parallel_for(spec.jobs.size(), [&](std::size_t i) {
    if (cancelled()) {
      skip(i);
      return;
    }
    results[i] = run_job(spec.jobs[i]);
    if (opts_.on_done) {
      std::lock_guard lk(done_m);
      opts_.on_done(results[i]);
    }
  });
  return results;
}

}  // namespace vpdift::campaign
