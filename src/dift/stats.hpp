// DIFT engine statistics.
//
// One flat counter block for everything the engine does on the hot path:
// tag combinations (LUB table lookups), flow checks, block-translation-cache
// behaviour, shadow-summary fast-path hits (see shadow.hpp) and bus traffic.
// The VP fills a DiftStats into every vp::RunResult so benchmark harnesses
// can emit machine-readable reports (BENCH_*.json) and perf PRs have a
// baseline to beat. Counters are plain 64-bit adds — cheap enough to stay
// enabled in both the plain VP and the VP+ (and the block engine hoists the
// per-instruction ones to block boundaries anyway).
#pragma once

#include <cstdint>
#include <string>

namespace vpdift::dift {

/// The one list of DiftStats counters, in report order. The struct members,
/// the arithmetic, to_json() and the service wire decoder are all expanded
/// from it, so adding a counter is a one-line change here.
#define VPDIFT_DIFT_STATS_FIELDS(X)                                          \
  X(lub_calls)             /* LUB table lookups (a != b slow path) */        \
  X(flow_checks)           /* flow checks (from != to): core rows + ctx */   \
  X(decode_hits)           /* instructions executed from cached blocks */    \
  X(decode_misses)         /* instructions decoded into micro-ops */         \
  X(block_hits)            /* block-cache lookups that found a valid block */ \
  X(block_misses)          /* block-cache lookups that built a new block */  \
  X(block_invalidations)   /* cached blocks rebuilt (raw bytes changed) */   \
  X(chained_transfers)     /* block entries resolved via terminator chain */ \
  X(fetch_summary_hits)    /* fetches cleared via block-span memo */         \
  X(load_summary_hits)     /* loads tagged via uniform summary */            \
  X(mem_summary_hits)      /* Memory reads served via summary */             \
  X(dma_summary_hits)      /* DMA bursts forwarded as uniform */             \
  X(bus_transactions)      /* b_transport calls routed by the bus */         \
  X(plain_variant_hits)    /* block dispatches via plain variant */          \
  X(tainted_variant_hits)  /* block dispatches via tainted variant */        \
  X(variant_promotions)    /* plain dispatches promoted pre-retire */

struct DiftStats {
#define VPDIFT_X(name) std::uint64_t name = 0;
  VPDIFT_DIFT_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X

  /// Calls f(name, counter) for every counter, in report order.
  template <typename F>
  void for_each(F&& f) {
#define VPDIFT_X(name) f(#name, name);
    VPDIFT_DIFT_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
  }
  template <typename F>
  void for_each(F&& f) const {
#define VPDIFT_X(name) f(#name, name);
    VPDIFT_DIFT_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
  }

  std::uint64_t summary_hits() const {
    return fetch_summary_hits + load_summary_hits + mem_summary_hits +
           dma_summary_hits;
  }

  DiftStats& operator+=(const DiftStats& o) {
#define VPDIFT_X(name) name += o.name;
    VPDIFT_DIFT_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
    return *this;
  }

  DiftStats operator-(const DiftStats& o) const {
    DiftStats d;
#define VPDIFT_X(name) d.name = name - o.name;
    VPDIFT_DIFT_STATS_FIELDS(VPDIFT_X)
#undef VPDIFT_X
    return d;
  }
};

/// JSON object rendering, shared by the bench harnesses and the CLI runner.
inline std::string to_json(const DiftStats& s) {
  std::string out = "{";
  s.for_each([&](const char* k, std::uint64_t v) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += k;
    out += "\":";
    out += std::to_string(v);
  });
  return out + "}";
}

}  // namespace vpdift::dift
