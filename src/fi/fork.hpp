// Fork-based execution of a fault-injection suite.
//
// The cold (replay) path re-runs the firmware from reset for every fault, so
// a campaign of N faults costs O(N x full run). The fork engine instead runs
// the fault-free golden trajectory ONCE per worker ("the cursor"), snapshots
// the full VP state at each fault site (vp::VpSnapshot: architectural state,
// the non-zero pages of RAM + tag plane, every peripheral, kernel process
// phases), and runs only
// the post-fault tail of each job on a fresh VP restored from that snapshot —
// O(golden + sum of tails).
//
// Equivalence contract: for every fault, the composed JobResult (verdict,
// instret, DiftStats, watchdog resets, UART output, markers) is
// bit-identical to what campaign::Runner::run(suite.jobs) would produce for
// the same suite, serial or parallel. The fork-vs-replay tests pin this for
// all fault models.
//
// Mechanics per worker:
//  * architectural sites (GPR/RAM/tag faults) are visited by chaining
//    rv::Core::arm_fault callbacks along the cursor's retired-instruction
//    axis (the core disarms before invoking a callback, so the callback can
//    arm the next site);
//  * time sites (peripheral/IRQ faults) are visited by scheduling callbacks
//    at their trigger times before the cursor starts — the same setup-time
//    scheduling order fi::arm() uses for a cold job;
//  * each visited site takes ONE snapshot (faults sharing a site share it)
//    and runs its tails inline via a nested simulation run;
//  * sites the cursor never reaches (the firmware exited first — exactly the
//    cold runs whose trigger never fires) synthesize their result from the
//    cursor's own outcome.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "fi/suite.hpp"
#include "vp/vp.hpp"

namespace vpdift::fi {

/// Work accounting of one forked campaign — the basis of the reported
/// golden-vs-tail speedup.
struct ForkStats {
  std::uint64_t golden_instret = 0;  ///< retired by the golden cursors
  std::uint64_t tail_instret = 0;    ///< retired by the forked tails
  std::uint64_t replay_instret = 0;  ///< what full replay would have retired
  std::size_t snapshots = 0;         ///< distinct fault sites snapshotted

  std::uint64_t executed() const { return golden_instret + tail_instret; }
  double speedup() const {
    return executed() ? static_cast<double>(replay_instret) /
                            static_cast<double>(executed())
                      : 0.0;
  }
};

/// Per-suite cache of fault-site snapshots and the golden cursor outcome —
/// the warm path of a repeated fork campaign. A site already cached replays
/// its tails straight from the stored snapshot (or synthesizes its result
/// from the stored golden outcome for sites the cursor never reached)
/// without running a cursor at all. Single-threaded by design: the golden
/// JobResult embeds thread-confined provenance, so a cache must only ever
/// be driven from one thread — the serial run_forked_subset path (the
/// service's worker processes each own one per suite).
struct FiSiteCache {
  struct Entry {
    std::shared_ptr<const vp::VpSnapshot> snap;  ///< null when unreached
    bool unreached = false;  ///< cursor exited before this trigger
  };

  /// Site key: (is-architectural, trigger instret-or-us) — the same grouping
  /// the fork engine snapshots by, so faults sharing a site share an entry.
  std::map<std::pair<bool, std::uint64_t>, Entry> sites;
  /// The golden cursor's composed outcome (synthesizes unreached sites).
  campaign::JobResult golden;
  bool have_golden = false;

  /// Stored-snapshot bound. A snapshot holds only the RAM and tag pages
  /// that are not all zero (a few KiB to tens of KiB for the bundled
  /// firmware), but a firmware that fills its RAM makes each one up to
  /// RAM + tag plane in size. When full, further sites run cold
  /// (deterministically) — they are simply never stored, not evicted.
  std::size_t snapshot_cap = 64;
  std::size_t stored = 0;   ///< snapshots currently held
  std::uint64_t hits = 0;   ///< sites served from the cache
  std::uint64_t misses = 0; ///< sites that needed the cursor
};

/// Executes `suite`'s fault jobs in fork mode on `jobs` workers (<=1 =
/// serial on the calling thread; each worker runs its own golden cursor over
/// a contiguous slice of the fault list). The result vector parallels
/// suite.faults index for index. `on_done` is called as each job finishes
/// (serialized). Never throws per-job — failures become verdict "crash".
/// `cancel` (optional) requests graceful cancellation: fault sites not yet
/// processed are skipped (verdict "skipped", ok = false, on_done NOT
/// called) while in-flight tails finish normally.
std::vector<campaign::JobResult> run_forked(
    const FiSuite& suite, std::size_t jobs,
    const std::function<void(const campaign::JobResult&)>& on_done = {},
    ForkStats* stats = nullptr, const std::atomic<bool>* cancel = nullptr);

/// Executes only `indices` of `suite`'s fault jobs, serially on the calling
/// thread, consulting (and filling) `cache` when given. The result vector
/// still parallels suite.faults full-size — entries outside `indices` stay
/// default-constructed (empty name). Cold with an empty cache, the filled
/// entries are bit-identical to run_forked / Runner::run for the same
/// faults; warm, the cursor is skipped entirely for cached sites, which is
/// where the service's repeat-submission speedup comes from. Out-of-range
/// indices throw std::invalid_argument; duplicates are processed once.
std::vector<campaign::JobResult> run_forked_subset(
    const FiSuite& suite, const std::vector<std::size_t>& indices,
    const std::function<void(const campaign::JobResult&)>& on_done = {},
    ForkStats* stats = nullptr, FiSiteCache* cache = nullptr,
    const std::atomic<bool>* cancel = nullptr);

}  // namespace vpdift::fi
