// The service's content-hash warm cache.
//
// One WarmCache lives in each worker process and persists across
// submissions. It layers four caches, all keyed by content (see hash.hpp):
//
//   * firmware   — resolved rvasm::Programs. Builtin names (primes, qsort,
//                  attack:N, ...) key by name; ELF paths key by file BYTES,
//                  so editing the file misses while resubmitting it hits.
//   * policy     — campaign::ResolvedPolicy keyed by (policy content,
//                  program content): a policy resolves against the
//                  firmware's symbols, so the same text against a different
//                  image is a different object. Entries are shared_ptr —
//                  a ResolvedPolicy owns its lattice and is move-only.
//   * result     — finished JobResults for deterministic jobs (no wall
//                  budget, not a crash), keyed by the full job identity.
//                  This is what makes a repeated fi golden run free.
//   * analysis   — sa::AnalysisResult keyed by (program content, policy
//                  content, RAM size): a warm resubmission of an analyze
//                  job reuses the lint report without re-running the
//                  abstract interpreter.
//   * fault site — one fi::FiSiteCache per (firmware content, seed): the
//                  snapshots taken along a suite's golden cursor plus the
//                  cursor outcome. The fault schedule is a deterministic
//                  prefix sequence in n, so fi:qsort:10 and fi:qsort:20
//                  under one seed share entries.
//
// Everything here is single-threaded by design (lattices and snapshots are
// thread-confined); the service gets its parallelism from running one
// WarmCache per worker *process*.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "campaign/runner.hpp"
#include "fi/fork.hpp"
#include "fi/suite.hpp"
#include "rvasm/program.hpp"

namespace vpdift::service {

/// The one list of CacheStats counters, in report order. The struct
/// members, the arithmetic, to_json() and cache_stats_from_json() are all
/// expanded from it. The last four are resilience counters, incremented by
/// the server's supervision loop rather than by the caches; they ride in
/// the same block so the report JSON and the CI smoke gates see one
/// consistent counter schema.
#define VPDIFT_CACHE_STATS_FIELDS(X)                                         \
  X(elf_hits)                                                                \
  X(elf_misses)                                                              \
  X(policy_hits)                                                             \
  X(policy_misses)                                                           \
  X(golden_cache_hits)                                                       \
  X(golden_cache_misses)                                                     \
  X(analysis_hits)                                                           \
  X(analysis_misses)                                                         \
  X(snapshot_hits)                                                           \
  X(snapshot_misses)                                                         \
  X(vp_builds)                                                               \
  X(vp_reuses)                                                               \
  X(translation_reuses) /* VP re-arms that also kept the core's translated- \
                           block cache warm (firmware content hash         \
                           unchanged — see VpPool::acquire) */             \
  X(executed_instret)   /* instructions actually retired (cache hits       \
                           retire none) — the number the warm-vs-cold      \
                           acceptance check compares */                    \
  X(hung_jobs)          /* jobs killed by deadline/heartbeat escalation    \
                           (verdict "hung") */                             \
  X(killed_workers)     /* involuntary worker deaths: crashed, killed      \
                           externally, or escalated */                     \
  X(shed_submissions)   /* submissions rejected "overloaded" */            \
  X(heartbeat_misses)   /* busy workers silent past the heartbeat timeout */

/// Counter block describing the cache behaviour of some span of work (one
/// op, one submission, or a worker's lifetime — deltas subtract cleanly).
struct CacheStats {
#define VPDIFT_X(name) std::uint64_t name = 0;
  VPDIFT_CACHE_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X

  /// Calls f(name, counter) for every counter, in report order.
  template <typename F>
  void for_each(F&& f) {
#define VPDIFT_X(name) f(#name, name);
    VPDIFT_CACHE_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
  }
  template <typename F>
  void for_each(F&& f) const {
#define VPDIFT_X(name) f(#name, name);
    VPDIFT_CACHE_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
  }

  CacheStats& operator+=(const CacheStats& o) {
#define VPDIFT_X(name) name += o.name;
    VPDIFT_CACHE_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
    return *this;
  }

  CacheStats operator-(const CacheStats& o) const {
    CacheStats d;
#define VPDIFT_X(name) d.name = name - o.name;
    VPDIFT_CACHE_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
    return d;
  }

  /// One flat JSON object, e.g. {"elf_hits":3,...,"executed_instret":12}.
  std::string to_json() const;
};

/// Parses a CacheStats from the JSON object `to_json` produced (absent or
/// mistyped fields read as 0) — the client side of the counter round trip.
CacheStats cache_stats_from_json(const campaign::JsonValue& obj);

class WarmCache {
 public:
  /// Content key of a firmware reference (builtin name or ELF path).
  /// Throws std::runtime_error when a path is unreadable.
  std::uint64_t firmware_key(const std::string& name);

  /// Content key of a resolved program (segments + entry point).
  static std::uint64_t program_key(const rvasm::Program& program);

  /// Content key of a policy reference (builtin scenario name or file).
  std::uint64_t policy_content_key(const std::string& name);

  /// The resolved program for `name`, cached by content key.
  const rvasm::Program& firmware(const std::string& name);

  /// The resolved policy for `name` against `program`, cached by
  /// (policy content, program content).
  std::shared_ptr<const campaign::ResolvedPolicy> policy(
      const std::string& name, const rvasm::Program& program);

  /// The static-analysis result for `program` under the policy named
  /// `policy_name`, cached by (program content, policy content, RAM size).
  /// `policy` is the already-resolved policy the analysis runs against.
  std::shared_ptr<const sa::AnalysisResult> analysis(
      const std::string& policy_name, const rvasm::Program& program,
      const dift::SecurityPolicy* policy, std::uint64_t ram_size);

  /// Identity of a declarative job: name, firmware content, policy content,
  /// mode, uart input and budgets. Hook-carrying jobs have no stable
  /// identity (see cacheable()).
  std::uint64_t job_key(const campaign::JobSpec& job);

  /// True when a finished result for `job` may be replayed from the cache:
  /// declarative (no programmatic hooks) and free of wall-clock budgets —
  /// the two ways a re-run could legitimately differ.
  static bool cacheable(const campaign::JobSpec& job);

  const campaign::JobResult* find_result(std::uint64_t key) const;
  void store_result(std::uint64_t key, const campaign::JobResult& r);

  /// Suite identity for the fault-site cache: (firmware content, seed).
  /// Deliberately excludes n_faults — the schedule is a prefix sequence.
  std::uint64_t suite_key(const fi::FiSuiteSpec& spec);

  fi::FiSiteCache& site_cache(std::uint64_t key) { return sites_[key]; }

  campaign::VpPool& pool() { return pool_; }

  /// A RunnerEnv whose resolvers and pool are backed by this cache. The
  /// returned object captures `this`; it must not outlive the cache.
  campaign::RunnerEnv env();

  void note_executed(std::uint64_t instret) {
    counters_.executed_instret += instret;
  }
  void note_golden(bool hit) {
    ++(hit ? counters_.golden_cache_hits : counters_.golden_cache_misses);
  }

  /// Cumulative counters (live site-cache and VP-pool numbers folded in).
  CacheStats stats() const;

 private:
  std::map<std::uint64_t, rvasm::Program> firmware_;
  std::map<std::uint64_t, std::shared_ptr<const campaign::ResolvedPolicy>>
      policies_;
  std::map<std::uint64_t, campaign::JobResult> results_;
  std::map<std::uint64_t, std::shared_ptr<const sa::AnalysisResult>> analyses_;
  std::map<std::uint64_t, fi::FiSiteCache> sites_;
  campaign::VpPool pool_;
  CacheStats counters_;
};

}  // namespace vpdift::service
