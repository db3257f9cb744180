// vpbench — closed-loop measurement driver for the VP, the VP+ and the
// campaign service.
//
//   vpbench --workload W --seed N --seconds S --trace 0|1 --out FILE
//
// Run from the repository root (policy files are read from
// vpbench/policies); vpdift-serve is expected next to this executable.
//
// Workloads (each a closed loop: the next operation starts only after the
// previous one finished):
//   plain-kernels    Table II compute programs, VP and VP+ (permissive)
//   tainted-kernels  programs with read-only working data, VP+ under
//                    permissive (control) and under a live-taint policy
//   periph-io        peripheral-bound firmware, VP and VP+ (live policy)
//   fi-service       fi:<fw>:<n> suites (master seeds drawn from the run's
//                    seed) submitted to a vpdift-serve daemon, each cold (to
//                    a fresh daemon) and then warm (resubmitted)
//
// Every number comes from outside the program: wall time around calls into
// the public fw / dift / vp / campaign / fi / service API, plus the counters
// those calls return. The driver writes raw samples — per-operation records,
// set-up samples, spans and counters — to --out as one JSON document; the
// statistics and the correctness gate live in analysis.py, the metric table
// in run.py.
//
// --trace 1 alternates the loop: every other pass over the workload's
// operation kinds (every other cold/warm pair on fi-service) records a span
// around every public call, the passes between run untraced as the baseline
// the tracing overhead is measured against, and a snapshot/restore probe runs
// at the end.
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "dift/policy_parser.hpp"
#include "dift/stats.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "fw/benchmarks.hpp"
#include "fw/immobilizer.hpp"
#include "service/client.hpp"
#include "vp/vp.hpp"

#ifndef VPBENCH_BUILD_TYPE
#define VPBENCH_BUILD_TYPE "unknown"
#endif

using namespace vpdift;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// ---------------------------------------------------------------- tracing

/// In-memory span log: one span per public call, nested by the call stack.
/// Spans of one operation share its request id.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int begin(const char* name, std::uint64_t request) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      request});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  /// A zero-length marker (e.g. a streamed job event) under the open span.
  void mark(const char* name, std::uint64_t request) { end(begin(name, request)); }

  std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += (i ? ",\n" : "\n") + std::string("{\"name\":\"") + s.name +
             "\",\"start\":" + num(s.start) + ",\"end\":" + num(s.end) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) + "}";
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when tracing is off (null tracer).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t request)
      : t_(t), id_(t ? t->begin(name, request) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string serve;   ///< vpdift-serve, next to this executable
  std::string socket;  ///< the daemon's socket, in the same directory
};

const char* const kPolicyDir = "vpbench/policies";

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + campaign::json_quote(cpu) +
         ",\"build_type\":\"" VPBENCH_BUILD_TYPE "\"}";
}

/// Pins the calling thread to one CPU after another of the set it started
/// with, and restores that set when destroyed. On a shared host the CPUs do
/// not run at one speed: at any moment another tenant can slow one of them
/// by up to 45% for seconds (105 against 188 MIPS on tainted-kernels), and
/// a single-threaded loop that the scheduler leaves there measures only the
/// tenant. Visiting every CPU in turn lets the fast-decile statistics find
/// the undisturbed ones.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&start_);
    if (::sched_getaffinity(0, sizeof start_, &start_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &start_)) cpus_.push_back(c);
  }
  ~CpuRotor() {
    if (cpus_.size() > 1) ::sched_setaffinity(0, sizeof start_, &start_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t start_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------- kernel workloads

const sysc::Time kSimBudget = sysc::Time::sec(600);
/// Timed operations between two set-up reps of the kernel loop: 4-8% of the
/// loop's time, and 60 to 120 set-up samples in a 25 s run.
constexpr std::size_t kOpsPerSetup = 4;

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

/// Constructs a VP and arms it for a run: load, then (VP+ only) apply the
/// policy.
template <typename VpT>
std::unique_ptr<VpT> build_vp(const rvasm::Program& program,
                              const vp::VpConfig& cfg,
                              const dift::SecurityPolicy* policy, Tracer* tr,
                              std::uint64_t req) {
  std::unique_ptr<VpT> v;
  {
    Scope s(tr, "vp.construct", req);
    v = std::make_unique<VpT>(cfg);
  }
  {
    Scope s(tr, "vp.load", req);
    v->load(program);
  }
  if constexpr (VpT::kTainted) {
    Scope s(tr, "dift.apply_policy", req);
    v->apply_policy(*policy);
  }
  return v;
}

/// Snapshot/restore probe — the fork engine's two primitive steps, timed
/// from outside: snapshot a VP+ from inside an rv::Core::arm_fault callback
/// halfway through its run, then restore that snapshot into a fresh VP+.
std::string snapshot_probe_json(const std::string& name,
                                const rvasm::Program& program,
                                const vp::VpConfig& cfg,
                                const dift::SecurityPolicy& policy,
                                Tracer* tr) {
  auto fresh = [&] {
    return build_vp<vp::VpDift>(program, cfg, &policy, tr, 0);
  };
  const std::uint64_t instret = fresh()->run(kSimBudget).instret;
  std::vector<double> snap_s, restore_s;
  double snap_mb = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const std::uint64_t req = 1'000'000 + rep;
    auto v = fresh();
    vp::VpSnapshot snap;
    v->core().arm_fault(instret / 2, [&](rv::Core<rv::TaintedWord>&) {
      Scope s(tr, "vp.snapshot", req);
      const double t0 = now_s();
      snap = v->snapshot();
      snap_s.push_back(now_s() - t0);
    });
    v->run(kSimBudget);
    snap_mb = static_cast<double>(snap.ram.size() + snap.ram_tags.size()) /
              (1024.0 * 1024.0);
    auto target = fresh();
    Scope s(tr, "vp.restore", req);
    const double t0 = now_s();
    target->restore(snap);
    restore_s.push_back(now_s() - t0);
  }
  return "{\"program\":\"" + name + "\",\"snapshot_s\":" + json_array(snap_s) +
         ",\"restore_s\":" + json_array(restore_s) +
         ",\"snapshot_mb\":" + num(snap_mb) + "}";
}

/// One firmware of a kernel workload: how to build it and its VP config.
struct ProgramDef {
  std::string name;
  std::function<rvasm::Program(std::uint64_t seed)> make;
  std::function<vp::VpConfig()> config = {};  ///< null = the default VpConfig
  /// Live-taint policy: a file under kPolicyDir, or a builtin scenario.
  std::string live_policy = {};
};

std::vector<ProgramDef> program_defs() {
  return {
      {"qsort",
       [](std::uint64_t seed) {
         return fw::make_qsort(24000, static_cast<std::uint32_t>(seed) | 1u);
       }},
      {"dhrystone", [](std::uint64_t) { return fw::make_dhrystone(20000); }},
      {"primes", [](std::uint64_t) { return fw::make_primes(50000); }},
      {"sha512", [](std::uint64_t) { return fw::make_sha512(2048, 400); },
       nullptr, "sha512.pol"},
      {"sha256", [](std::uint64_t) { return fw::make_sha256(4096, 1200); },
       nullptr, "sha256.pol"},
      {"crc32", [](std::uint64_t) { return fw::make_crc32(4096, 25); }},
      {"matmul", [](std::uint64_t) { return fw::make_matmul(80); }},
      {"rtos-tasks", [](std::uint64_t) { return fw::make_rtos_tasks(1000, 50); },
       nullptr, "rtos-tasks.pol"},
      {"simple-sensor",
       [](std::uint64_t) { return fw::make_simple_sensor(5000); },
       [] {
         vp::VpConfig cfg;
         cfg.sensor_period = sysc::Time::us(100);
         return cfg;
       },
       "simple-sensor.pol"},
      {"immo-fixed",
       [](std::uint64_t) {
         return fw::make_immobilizer(fw::ImmoVariant::kFixedDump,
                                     campaign::demo_pin(), 40);
       },
       [] {
         vp::VpConfig cfg;
         cfg.with_engine_ecu = true;
         cfg.engine_pin = campaign::demo_pin();
         cfg.engine_period = sysc::Time::ms(1);
         return cfg;
       },
       "immobilizer-per-byte"},
  };
}

enum class Engine { kVp, kVpdPermissive, kVpdLive };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kVp: return "vp";
    case Engine::kVpdPermissive: return "vpd";
    case Engine::kVpdLive: return "vpd-live";
  }
  return "?";
}

/// One operation kind of a workload: a program on one engine/policy.
struct Kind {
  std::size_t program = 0;  ///< index into the workload's programs
  Engine engine = Engine::kVp;
  bool headline = true;     ///< counted in the end-to-end metrics
};

struct KernelWorkload {
  std::vector<ProgramDef> programs;
  std::vector<Kind> kinds;
};

KernelWorkload kernel_workload(const std::string& name) {
  const std::vector<ProgramDef> all = program_defs();
  auto pick = [&](std::initializer_list<const char*> names) {
    std::vector<ProgramDef> out;
    for (const char* n : names)
      for (const ProgramDef& d : all)
        if (d.name == n) out.push_back(d);
    return out;
  };
  KernelWorkload w;
  if (name == "plain-kernels") {
    w.programs = pick({"qsort", "dhrystone", "primes", "sha512", "sha256",
                       "crc32", "matmul", "rtos-tasks"});
    for (std::size_t p = 0; p < w.programs.size(); ++p) {
      w.kinds.push_back({p, Engine::kVp, true});
      w.kinds.push_back({p, Engine::kVpdPermissive, true});
    }
  } else if (name == "tainted-kernels") {
    // Only programs that combine classified data with other data on every
    // iteration qualify: the SHA round constants and the RTOS task
    // counters. qsort, primes, crc32 and matmul generate their inputs in
    // registers and store them, which overwrites any classification, and
    // dhrystone only copies and compares its string (no LUB ever runs).
    w.programs = pick({"sha512", "sha256", "rtos-tasks"});
    for (std::size_t p = 0; p < w.programs.size(); ++p) {
      w.kinds.push_back({p, Engine::kVpdPermissive, false});
      w.kinds.push_back({p, Engine::kVpdLive, true});
    }
  } else if (name == "periph-io") {
    w.programs = pick({"simple-sensor", "immo-fixed"});
    for (std::size_t p = 0; p < w.programs.size(); ++p) {
      w.kinds.push_back({p, Engine::kVp, true});
      w.kinds.push_back({p, Engine::kVpdLive, true});
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// A built firmware and its parsed policies — the output of set-up.
struct Prepared {
  rvasm::Program program;
  vp::VpConfig config;
  std::shared_ptr<const campaign::ResolvedPolicy> permissive;
  std::shared_ptr<const campaign::ResolvedPolicy> live;

  /// The policy a kind runs under (null on the plain VP).
  const dift::SecurityPolicy* policy(Engine e) const {
    if (e == Engine::kVp) return nullptr;
    return (e == Engine::kVpdLive ? live : permissive)->policy();
  }
};

struct OpRecord {
  std::size_t kind = 0;
  bool traced = false;
  double start = 0, seconds = 0;
  std::string error;
  vp::RunResult run;
};

class KernelBench {
 public:
  KernelBench(const Options& opt, KernelWorkload w)
      : opt_(opt), w_(std::move(w)) {}

  int run(std::ostream& out);

 private:
  std::shared_ptr<const campaign::ResolvedPolicy> parse_policy(
      const std::string& ref, const rvasm::Program& program, Tracer* tr,
      std::uint64_t req);
  std::vector<Prepared> setup(Tracer* tr);
  OpRecord run_op(std::size_t kind, Tracer* tr, std::uint64_t req);
  std::string probe_json(Tracer* tr);

  const Options& opt_;
  KernelWorkload w_;
  std::vector<Prepared> prep_;
};

std::shared_ptr<const campaign::ResolvedPolicy> KernelBench::parse_policy(
    const std::string& ref, const rvasm::Program& program, Tracer* tr,
    std::uint64_t req) {
  Scope s(tr, "dift.policy_parse", req);
  auto r = std::make_shared<campaign::ResolvedPolicy>();
  if (ref.size() > 4 && ref.compare(ref.size() - 4, 4, ".pol") == 0) {
    r->file.emplace(dift::PolicySpec::parse(read_file(std::string(kPolicyDir) + "/" + ref),
                                            &program.symbols));
  } else {
    *r = campaign::resolve_policy(ref, program);
  }
  return r;
}

std::vector<Prepared> KernelBench::setup(Tracer* tr) {
  std::vector<Prepared> prep;
  for (std::size_t pi = 0; pi < w_.programs.size(); ++pi) {
    const ProgramDef& def = w_.programs[pi];
    Prepared p;
    {
      Scope s(tr, "fw.build", 0);
      p.program = def.make(splitmix64(opt_.seed));
    }
    p.config = def.config ? def.config() : vp::VpConfig{};
    bool need_perm = false, need_live = false;
    for (const Kind& k : w_.kinds) {
      if (k.program != pi) continue;
      need_perm |= k.engine == Engine::kVpdPermissive;
      need_live |= k.engine == Engine::kVpdLive;
    }
    if (need_perm) p.permissive = parse_policy("permissive", p.program, tr, 0);
    if (need_live) p.live = parse_policy(def.live_policy, p.program, tr, 0);
    // Construct, load and arm one VP per kind, as the first operation would.
    for (const Kind& k : w_.kinds) {
      if (k.program != pi) continue;
      if (k.engine == Engine::kVp)
        build_vp<vp::Vp>(p.program, p.config, nullptr, tr, 0);
      else
        build_vp<vp::VpDift>(p.program, p.config, p.policy(k.engine), tr, 0);
    }
    prep.push_back(std::move(p));
  }
  return prep;
}

OpRecord KernelBench::run_op(std::size_t kind, Tracer* tr, std::uint64_t req) {
  const Kind& k = w_.kinds[kind];
  const Prepared& p = prep_[k.program];
  OpRecord rec;
  rec.kind = kind;
  rec.traced = tr != nullptr;
  auto go = [&](auto v) {
    Scope s(tr, "vp.run", req);
    rec.start = now_s();
    rec.run = v->run(kSimBudget);
    rec.seconds = now_s() - rec.start;
  };
  try {
    if (k.engine == Engine::kVp)
      go(build_vp<vp::Vp>(p.program, p.config, nullptr, tr, req));
    else
      go(build_vp<vp::VpDift>(p.program, p.config, p.policy(k.engine), tr,
                              req));
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

std::string KernelBench::probe_json(Tracer* tr) {
  std::size_t kind = 0;
  while (w_.kinds[kind].engine == Engine::kVp) ++kind;
  const Kind& k = w_.kinds[kind];
  const Prepared& p = prep_[k.program];
  return snapshot_probe_json(w_.programs[k.program].name, p.program, p.config,
                             *p.policy(k.engine), tr);
}

std::string record_json(const OpRecord& r, std::uint64_t req) {
  const vp::RunResult& run = r.run;
  return "{\"req\":" + std::to_string(req) + ",\"kind\":" +
         std::to_string(r.kind) + ",\"traced\":" + (r.traced ? "true" : "false") +
         ",\"start\":" + num(r.start) + ",\"seconds\":" + num(r.seconds) +
         ",\"error\":" + campaign::json_quote(r.error) + ",\"reason\":\"" +
         vp::to_string(run.reason) + "\",\"exit_code\":" +
         std::to_string(run.exit_code) + ",\"instret\":" +
         std::to_string(run.instret) + ",\"sim_ps\":" +
         std::to_string(run.sim_time.picos()) +
         ",\"uart_bytes\":" + std::to_string(run.uart_output.size()) +
         ",\"uart_hash\":\"" + std::to_string(fnv1a(run.uart_output)) +
         "\",\"watchdog_resets\":" + std::to_string(run.watchdog_resets) +
         ",\"stats\":" + dift::to_json(run.stats) + "}";
}

int KernelBench::run(std::ostream& out) {
  Tracer tracer;
  Tracer* tr = opt_.trace ? &tracer : nullptr;

  // Set-up arms the loop. The loop repeats it, timed and with the result
  // dropped, every kOpsPerSetup operations, so that its samples meet the
  // same CPUs and stretches of host load as the operations do.
  std::vector<double> setup_s;
  auto timed_setup = [&](Tracer* t) {
    const double t0 = now_s();
    std::vector<Prepared> prep = setup(t);
    setup_s.push_back(now_s() - t0);
    return prep;
  };
  prep_ = timed_setup(tr);

  // Reference pass (untimed warm-up): one run of every kind.
  std::vector<std::string> records;
  std::uint64_t req = 0;
  for (std::size_t k = 0; k < w_.kinds.size(); ++k) {
    ++req;
    records.push_back(record_json(run_op(k, nullptr, req), req));
  }
  const std::size_t n_reference = records.size();

  // The timed closed loop, one pass over the kinds after another. With
  // tracing, odd passes are traced and even passes are the untraced
  // baseline, so both meet the same stretches of host load; the loop then
  // runs at least one pass of each. Each pair of passes runs on the next
  // CPU.
  CpuRotor rotor;
  const double loop_start = now_s();
  const std::size_t n_kinds = w_.kinds.size();
  for (std::size_t op = 0;
       now_s() - loop_start < opt_.seconds || (tr && op < 2 * n_kinds); ++op) {
    const std::size_t pass = op / n_kinds;
    if (op % n_kinds == 0 && pass % 2 == 0) rotor.next();
    if (op > 0 && op % kOpsPerSetup == 0) timed_setup(nullptr);
    Tracer* t = pass % 2 ? tr : nullptr;
    ++req;
    records.push_back(record_json(run_op(op % n_kinds, t, req), req));
  }
  const double loop_seconds = now_s() - loop_start;
  const std::string probe = opt_.trace ? probe_json(tr) : "null";

  out << "{\n\"workload\":\"" << opt_.workload << "\",\n\"seed\":" << opt_.seed
      << ",\n\"host\":" << host_json() << ",\n\"kinds\":[";
  for (std::size_t k = 0; k < w_.kinds.size(); ++k) {
    const Kind& kd = w_.kinds[k];
    out << (k ? "," : "") << "{\"program\":\"" << w_.programs[kd.program].name
        << "\",\"engine\":\"" << engine_name(kd.engine)
        << "\",\"headline\":" << (kd.headline ? "true" : "false") << "}";
  }
  out << "],\n\"setup_s\":" << json_array(setup_s)
      << ",\n\"reference_records\":" << n_reference
      << ",\n\"loop_seconds\":" << num(loop_seconds) << ",\n\"records\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    out << (i ? ",\n" : "") << records[i];
  out << "],\n\"probe\":" << probe << ",\n\"spans\":" << tracer.to_json()
      << ",\n\"peak_rss_mb\":" << num(self_peak_rss_mb()) << "\n}\n";
  return 0;
}

// ------------------------------------------------------------- fi-service

/// One submission as the client saw it.
struct Submission {
  std::string fw;
  std::uint64_t seed = 0;
  bool warm = false;
  bool traced = false;
  double start = 0, first_event = -1, last_event = -1, done = 0;
  std::size_t events = 0;
  std::vector<std::string> verdicts;  ///< streamed per-job verdicts
  service::Outcome outcome;
  std::string client_error;
  /// What a full replay of the suite's faults retires (fi::ForkStats of the
  /// in-process reference run): the suite's work, whatever the service's
  /// fork and cache strategy executes. 0 until verified.
  std::uint64_t replay_instret = 0;
};

/// Peak resident set (VmHWM) of one live process in MB; 0 once it is gone.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

/// The peak RSS of `root` plus that of each of its child processes (the
/// daemon's workers). Sampled while the tree is alive: wait4's ru_maxrss
/// would report only the largest single process.
double tree_peak_rss_mb(pid_t root) {
  double mb = vm_hwm_mb(std::to_string(root));
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc", ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string pid = it->path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // "pid (comm) state ppid ..."; comm may contain spaces and parentheses.
    const auto paren = stat.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream rest(stat.substr(paren + 1));
    char state = 0;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == root) mb += vm_hwm_mb(pid);
  }
  return mb;
}

struct Daemon {
  pid_t pid = -1;
  double rss_mb = 0;  ///< peak RSS of the daemon tree, sampled by reap()
};

/// Spawns vpdift-serve and waits for the first successful ping.
Daemon spawn_daemon(const Options& opt, std::size_t workers) {
  ::unlink(opt.socket.c_str());
  Daemon d;
  d.pid = ::fork();
  if (d.pid < 0) throw std::runtime_error("fork failed");
  if (d.pid == 0) {
    const std::string w = std::to_string(workers);
    ::execl(opt.serve.c_str(), opt.serve.c_str(), "--socket", opt.socket.c_str(),
            "--workers", w.c_str(), "--quiet", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  for (int i = 0; i < 4000; ++i) {
    try {
      service::Client probe(opt.socket);
      if (probe.ping()) return d;
    } catch (const std::exception&) {
    }
    int st = 0;
    if (::waitpid(d.pid, &st, WNOHANG) == d.pid)
      throw std::runtime_error("vpdift-serve exited during start-up");
    ::usleep(2000);
  }
  throw std::runtime_error("vpdift-serve did not answer ping");
}

/// Samples the daemon tree's peak RSS, asks the daemon to drain, then reaps
/// it (killing it if it lingers).
void reap_daemon(const Options& opt, Daemon& d) {
  if (d.pid <= 0) return;
  d.rss_mb = tree_peak_rss_mb(d.pid);
  try {
    service::Client c(opt.socket);
    c.shutdown_server();
  } catch (const std::exception&) {
    ::kill(d.pid, SIGTERM);
  }
  int st = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(d.pid, &st, WNOHANG) == d.pid) {
      d.pid = -1;
      return;
    }
    ::usleep(10000);
  }
  ::kill(d.pid, SIGKILL);
  ::waitpid(d.pid, &st, 0);
  d.pid = -1;
}

/// The report with its host-dependent lines (wall clock, cache and fork
/// counters) removed — the same rule vpdift-serve --self-test applies.
std::string deterministic_lines(const std::string& report) {
  std::istringstream in(report);
  std::ostringstream out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"wall_s\"") != std::string::npos) continue;
    if (line.find("\"service\"") != std::string::npos) continue;
    if (line.find("\"fork\"") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

Submission submit(service::Client& c, const std::string& fw, std::size_t n,
                  std::uint64_t seed, bool warm, Tracer* tr, std::uint64_t req) {
  Submission s;
  s.fw = fw;
  s.seed = seed;
  s.warm = warm;
  s.traced = tr != nullptr;
  Scope span(tr, "service.submit", req);
  s.start = now_s();
  try {
    s.outcome = c.submit_ref(
        "fi:" + fw + ":" + std::to_string(n), seed, 2,
        [&](const service::JobEvent& e) {
          const double t = now_s();
          if (s.first_event < 0) s.first_event = t;
          s.last_event = t;
          ++s.events;
          s.verdicts.push_back(e.verdict);
          if (tr) tr->mark("service.job_event", req);
        });
  } catch (const std::exception& e) {
    s.client_error = e.what();
  }
  s.done = now_s();
  return s;
}

/// An in-process fi::run_forked of one suite: what every service report of
/// that suite must match.
struct FiReference {
  fi::FiSuite suite;
  std::vector<campaign::JobResult> results;
  std::vector<fi::Verdict> verdicts;
  std::vector<std::string> job_verdicts;  ///< sorted
  std::string fi_json;  ///< fork and engine counters, for the per-layer metrics
  std::uint64_t replay_instret = 0;
};

class FiServiceBench {
 public:
  explicit FiServiceBench(const Options& opt) : opt_(opt) {}
  int run(std::ostream& out);

 private:
  FiReference reference(const std::string& fw, std::uint64_t seed,
                        Tracer* tr);
  std::string verify(const Submission& cold, const Submission& warm,
                     const FiReference& ref);
  std::string probe_json(Tracer* tr);

  const Options& opt_;
  static constexpr std::size_t kFaults = 12;
  static constexpr std::size_t kWorkers = 2;
  /// Cold submissions between daemon restarts. A fresh daemon is the only
  /// way to submit a suite cold again, and recycling it bounds the workers'
  /// warm caches, which never evict. Equal to the number of looped
  /// firmwares, so every daemon sees each firmware's suite exactly once
  /// cold and once warm.
  static constexpr std::size_t kPairsPerDaemon = 3;
  /// Warms a fresh daemon's workers (VP pool, policy cache) untimed. The
  /// loop never submits this firmware, and the golden cache is keyed by
  /// firmware, not seed, so timed cold submissions still fill it.
  static constexpr const char* kWarmupFw = "primes";
};

FiReference FiServiceBench::reference(const std::string& fw,
                                      std::uint64_t seed, Tracer* tr) {
  fi::FiSuiteSpec spec;
  spec.benchmark = fw;
  spec.n_faults = kFaults;
  spec.seed = seed;
  fi::ForkStats fs;
  FiReference ref;
  {
    Scope s(tr, "fi.run_forked", 0);
    ref.suite = fi::build_suite(spec);
    ref.results = fi::run_forked(ref.suite, kWorkers, {}, &fs);
  }
  ref.replay_instret = fs.replay_instret;
  fi::build_matrix(ref.suite, ref.results, &ref.verdicts);
  double job_wall = 0;
  dift::DiftStats stats;
  for (const campaign::JobResult& r : ref.results) {
    job_wall += r.wall_seconds;
    stats += r.run.stats;
    ref.job_verdicts.push_back(r.verdict);
  }
  std::sort(ref.job_verdicts.begin(), ref.job_verdicts.end());
  ref.fi_json = "{\"golden_instret\":" + std::to_string(fs.golden_instret) +
                ",\"tail_instret\":" + std::to_string(fs.tail_instret) +
                ",\"replay_instret\":" + std::to_string(fs.replay_instret) +
                ",\"snapshots\":" + std::to_string(fs.snapshots) +
                ",\"job_wall_s\":" + num(job_wall) +
                ",\"stats\":" + dift::to_json(stats) + "}";
  return ref;
}

/// Checks one cold/warm pair against the in-process reference of its
/// suite. Returns "" when everything matches, else the first problem.
std::string FiServiceBench::verify(const Submission& cold,
                                   const Submission& warm,
                                   const FiReference& ref) {
  for (const Submission* s : {&cold, &warm}) {
    if (!s->client_error.empty()) return "client error: " + s->client_error;
    if (!s->outcome.error.empty()) return "server error: " + s->outcome.error;
    if (!s->outcome.ok) return "report not ok";
    for (const std::string& v : s->verdicts)
      if (v == "hung" || v == "crash") return "job verdict " + v;
  }
  const campaign::JsonValue rep = campaign::json_parse(cold.outcome.report);
  // The service appends its counter block; a placeholder keeps the
  // document's shape (the block itself is stripped before comparing).
  const std::string want = deterministic_lines(fi::matrix_json(
      ref.suite, ref.results, ref.verdicts,
      static_cast<std::size_t>(rep.num_or("workers", 0)), 0.0,
      "\"service\": null"));
  if (deterministic_lines(cold.outcome.report) != want)
    return "cold report differs from in-process run_forked";
  if (deterministic_lines(warm.outcome.report) != want)
    return "warm report differs from in-process run_forked";
  // Streamed events arrive in completion order; compare as multisets.
  for (const Submission* s : {&cold, &warm}) {
    std::vector<std::string> got = s->verdicts;
    std::sort(got.begin(), got.end());
    if (got != ref.job_verdicts)
      return "streamed job verdicts differ from run_forked";
  }
  return "";
}

/// The probe on the firmware and policy the fi suites themselves use.
std::string FiServiceBench::probe_json(Tracer* tr) {
  const rvasm::Program program = campaign::resolve_firmware("qsort");
  const campaign::ResolvedPolicy pol =
      campaign::resolve_policy("code-injection", program);
  return snapshot_probe_json("qsort", program, vp::VpConfig{}, *pol.policy(),
                             tr);
}

std::string submission_json(const Submission& s, std::uint64_t req) {
  return "{\"req\":" + std::to_string(req) + ",\"fw\":\"" + s.fw +
         "\",\"seed\":" + std::to_string(s.seed) +
         ",\"warm\":" + (s.warm ? "true" : "false") +
         ",\"traced\":" + (s.traced ? "true" : "false") +
         ",\"start\":" + num(s.start) + ",\"first_event\":" + num(s.first_event) +
         ",\"last_event\":" + num(s.last_event) + ",\"done\":" + num(s.done) +
         ",\"events\":" + std::to_string(s.events) +
         ",\"jobs\":" + std::to_string(s.outcome.jobs) +
         ",\"ok\":" + (s.outcome.ok ? "true" : "false") +
         ",\"error\":" + campaign::json_quote(s.client_error.empty()
                                                  ? s.outcome.error
                                                  : s.client_error) +
         ",\"report_bytes\":" + std::to_string(s.outcome.report.size()) +
         ",\"replay_instret\":" + std::to_string(s.replay_instret) +
         ",\"service\":" + s.outcome.service.to_json() + "}";
}

int FiServiceBench::run(std::ostream& out) {
  Tracer tracer;
  Tracer* tr = opt_.trace ? &tracer : nullptr;
  const std::vector<std::string> fws = {"qsort", "rtos-tasks", "simple-sensor"};

  // Each firmware's suite is drawn once per run from the seed, so every
  // cold submission of a firmware repeats the same work on a fresh daemon
  // and its speeds are samples of one quantity, as a kernel's are.
  std::vector<std::uint64_t> seeds;
  for (std::size_t f = 0; f < fws.size(); ++f)
    seeds.push_back(splitmix64(opt_.seed * 1000003ull + f) >> 16);

  // Set-up is the daemon spawn to the first successful ping. It is timed on
  // every restart of the loop, so its samples spread over the run.
  std::vector<double> setup_s;
  double daemon_rss = 0;
  Daemon d;
  std::vector<Submission> subs;
  std::string driver_error;
  std::uint64_t req = 0;
  double loop_seconds = 0;  ///< submission time only, restarts excluded
  double sensor_seconds = 0;  ///< the part of it spent on simple-sensor
  std::unique_ptr<service::Client> client;
  try {
    // With tracing, odd pairs are traced and even pairs are the untraced
    // baseline; the loop then runs at least one pair of each.
    for (std::size_t i = 0; loop_seconds < opt_.seconds || (tr && i < 2);
         ++i) {
      if (i % kPairsPerDaemon == 0) {
        client.reset();
        reap_daemon(opt_, d);
        daemon_rss = std::max(daemon_rss, d.rss_mb);
        const double t0 = now_s();
        {
          Scope s(i == 0 ? tr : nullptr, "service.spawn", 0);
          d = spawn_daemon(opt_, kWorkers);
        }
        setup_s.push_back(now_s() - t0);
        client = std::make_unique<service::Client>(opt_.socket);
        submit(*client, kWarmupFw, 2, splitmix64(~opt_.seed ^ i), false,
               nullptr, 0);
      }
      Tracer* t = i % 2 ? tr : nullptr;
      const std::string& fw = fws[i % fws.size()];
      const std::uint64_t seed = seeds[i % fws.size()];
      // simple-sensor's suite is light on most seeds, but a fault that
      // leaves its firmware waiting out the simulated-time budget makes a
      // suite take 2 s, cold and warm alike. Its pairs stop once they have
      // used a fifth of the loop, so the kinds the speed is measured on
      // keep their samples.
      const bool sensor = fw == "simple-sensor";
      if (sensor && sensor_seconds >= opt_.seconds / 5) continue;
      const double t0 = now_s();
      subs.push_back(submit(*client, fw, kFaults, seed, false, t, ++req));
      subs.push_back(submit(*client, fw, kFaults, seed, true, t, ++req));
      loop_seconds += now_s() - t0;
      if (sensor) sensor_seconds += now_s() - t0;
    }
  } catch (const std::exception& e) {
    driver_error = e.what();
  }
  client.reset();
  reap_daemon(opt_, d);
  daemon_rss = std::max(daemon_rss, d.rss_mb);
  // Before the in-process reference runs below, which are not the service's.
  const double peak_rss_mb = self_peak_rss_mb() + daemon_rss;

  // Correctness: every pair against an in-process run_forked of its suite
  // (untimed, once per suite).
  std::vector<std::unique_ptr<FiReference>> refs(fws.size());
  std::vector<std::string> pair_errors;
  std::vector<std::string> fi_stats;
  for (std::size_t i = 0; i + 1 < subs.size(); i += 2) {
    const auto f = static_cast<std::size_t>(
        std::find(fws.begin(), fws.end(), subs[i].fw) - fws.begin());
    std::string err;
    try {
      if (!refs[f])
        refs[f] = std::make_unique<FiReference>(reference(fws[f], seeds[f], tr));
      err = verify(subs[i], subs[i + 1], *refs[f]);
    } catch (const std::exception& e) {
      err = std::string("verify: ") + e.what();
    }
    const FiReference* ref = refs[f].get();
    subs[i].replay_instret = subs[i + 1].replay_instret =
        ref ? ref->replay_instret : 0;
    pair_errors.push_back(err);
    fi_stats.push_back(ref ? ref->fi_json : "null");
  }
  const std::string probe = opt_.trace ? probe_json(tr) : "null";

  out << "{\n\"workload\":\"fi-service\",\n\"seed\":" << opt_.seed
      << ",\n\"host\":" << host_json() << ",\n\"faults_per_suite\":" << kFaults
      << ",\n\"service_workers\":" << kWorkers
      << ",\n\"setup_s\":" << json_array(setup_s)
      << ",\n\"loop_seconds\":" << num(loop_seconds)
      << ",\n\"driver_error\":" << campaign::json_quote(driver_error)
      << ",\n\"submissions\":[\n";
  for (std::size_t i = 0; i < subs.size(); ++i)
    out << (i ? ",\n" : "") << submission_json(subs[i], i + 1);
  out << "],\n\"pair_errors\":[";
  for (std::size_t i = 0; i < pair_errors.size(); ++i)
    out << (i ? "," : "") << campaign::json_quote(pair_errors[i]);
  out << "],\n\"fi\":[";
  for (std::size_t i = 0; i < fi_stats.size(); ++i)
    out << (i ? ",\n" : "") << fi_stats[i];
  out << "],\n\"probe\":" << probe << ",\n\"spans\":" << tracer.to_json()
      << ",\n\"peak_rss_mb\":" << num(peak_rss_mb) << "\n}\n";
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vpbench --workload W --seed N --seconds S --trace 0|1 "
               "--out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && campaign::parse_u64(v, &u)) {
      opt.seed = u;
    } else if (a == "--seconds" && campaign::parse_f64(v, &opt.seconds) &&
               opt.seconds > 0) {
    } else if (a == "--trace" && (v == "0" || v == "1")) {
      opt.trace = v == "1";
    } else if (a == "--out") {
      opt.out = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.out.empty()) return usage();
  const std::string self = argv[0];
  const std::string dir = self.substr(0, self.find_last_of('/') + 1);
  opt.serve = dir + "vpdift-serve";
  opt.socket = dir + "serve.sock";
  try {
    std::ostringstream doc;
    int rc = 0;
    if (opt.workload == "fi-service") {
      rc = FiServiceBench(opt).run(doc);
    } else {
      rc = KernelBench(opt, kernel_workload(opt.workload)).run(doc);
    }
    std::ofstream f(opt.out);
    f << doc.str();
    if (!f) throw std::runtime_error("cannot write " + opt.out);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vpbench: %s\n", e.what());
    return 1;
  }
}
