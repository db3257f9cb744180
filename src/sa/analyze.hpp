// Static firmware analysis (ahead-of-time companion to the DIFT engine).
//
// Three cooperating passes over a loaded rvasm::Program:
//
//   1. CFG recovery — recursive descent from the entry point (plus every
//      trap vector installed through a resolvable `csrrw mtvec`), reusing
//      the rv/decode decoder and the block-terminator predicate the core's
//      block builder uses. Direct jumps and branches are followed exactly;
//      `jalr` targets are resolved through the value analysis (singleton
//      intervals) or, for returns (`jalr x0, ra, 0`), structurally via the
//      call graph (return sites feed every recorded continuation of their
//      containing function). Unresolvable indirects mark the CFG incomplete.
//
//   2. Taint reachability — a forward abstract interpretation over the
//      domain (u32 interval x may-taint tag) per register, with a
//      flow-insensitive may-taint map over RAM seeded from the policy's
//      memory classification and a per-peripheral MMIO source/sink model
//      mirroring src/soc. To keep counted copy loops precise without a
//      relational domain, up to kMaxStatesPerPc distinct abstract states
//      are kept per instruction (bounded disjunction) before collapsing
//      into one widened join state; interval bounds lost to widening are
//      recovered through branch refinement (beq/bne/bltu/bgeu).
//
//   3. Policy lint — statically reachable clearance violations (a source
//      reaching a sink without a sanctioned declassification), dead flow
//      rules, unused declassification grants, unreachable clearance sites,
//      SMC-capable stores.
//
// Soundness caveats are documented in docs/analysis.md (DMA, MMIO readback
// conservatism, the structural-return assumption, trap-handler modelling).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dift/policy.hpp"
#include "rv/decode.hpp"
#include "rvasm/program.hpp"

namespace vpdift::sa {

/// Coarse instruction classification driving the analyzer's transfer
/// functions. Exactly one class per Op.
enum class InsnClass : std::uint8_t {
  kTerminator,  ///< ends a translated block (rv::is_block_terminator)
  kBranch,      ///< conditional branch (falls through inside a block)
  kLoad,
  kStore,
  kCompute,  ///< everything else (ALU, lui/auipc)
};

/// Classification of a decoded instruction. Terminator status agrees with
/// rv::is_block_terminator by construction (tested exhaustively).
InsnClass classify(const rv::Insn& insn);

/// Closed u32 interval [lo, hi]; top = [0, 0xffffffff].
struct Interval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0xffffffffu;
  bool is_top() const { return lo == 0 && hi == 0xffffffffu; }
  bool singleton() const { return lo == hi; }
  static Interval top() { return {}; }
  static Interval exact(std::uint32_t v) { return {v, v}; }
};

/// One lint/analysis finding. `kind` is a stable machine-readable slug:
///   reachable-violation   policy violation on a statically reachable path
///   dead-flow-rule        configured lattice flow edge never exercised
///   unused-declass-grant  declassifying peripheral whose output is never read
///   unreachable-clearance-site  clearance-configured interface never written
///   smc-store             store that may overwrite reachable code
///   unresolved-indirect   jalr whose target set could not be resolved
///   imprecise-store       store through an unbounded pointer (analysis note)
///   analysis-limit        exploration budget exhausted / malformed image
struct Finding {
  std::string kind;
  std::string where;      ///< check site / device ("uart0.tx", "core.branch", ...)
  std::uint64_t pc = 0;   ///< anchoring instruction (0 when not pc-anchored)
  std::string detail;     ///< human-readable one-liner
  bool reachable = false; ///< true only for kind == "reachable-violation"
};

/// Recovered basic block (report granularity; the core's translated blocks
/// are windows over these, capped at its op limit).
struct BlockSummary {
  std::uint64_t start = 0;
  std::uint64_t end = 0;           ///< exclusive
  bool touches_taint = false;      ///< may load/store non-bottom data or trip a check
};

struct AnalysisResult {
  // CFG facts.
  std::uint64_t entry = 0;
  std::size_t reachable_instructions = 0;
  std::size_t linear_sweep_instructions = 0;  ///< decodable by linear sweep
  std::size_t unreachable_bytes = 0;          ///< text bytes recursive descent never hit
  std::vector<BlockSummary> blocks;
  std::vector<std::uint64_t> trap_entries;
  std::vector<std::uint64_t> call_entries;      ///< discovered function entries
  std::vector<std::uint64_t> unresolved_indirects;  ///< jalr pcs, unresolved
  std::vector<std::uint64_t> smc_stores;            ///< store pcs that may hit code

  /// CFG closed: every indirect resolved, every trap vector known, budget
  /// not exhausted.
  bool complete = false;
  /// The policy introduces no non-bottom tag anywhere (no classified
  /// memory/inputs, no declassification targets).
  bool taint_free = false;

  std::vector<Finding> findings;
  std::size_t reachable_violations = 0;  ///< count of reachable-violation findings
};

struct AnalyzeOptions {
  std::uint64_t ram_size = 4u << 20;       ///< must match the VP config
  std::size_t max_steps = 4u << 20;        ///< abstract-transfer budget
  std::size_t max_states_per_pc = 24;      ///< bounded-disjunction width
};

/// Analyzes `prog` under `policy` (nullptr = no policy: pure CFG recovery,
/// everything taint-free). Never throws on malformed firmware — degrades to
/// an incomplete result with an "analysis-limit" finding.
AnalysisResult analyze(const rvasm::Program& prog,
                       const dift::SecurityPolicy* policy,
                       const AnalyzeOptions& opts = {});

/// Machine-readable report (one JSON object, schema stable for ci gating).
std::string to_json(const AnalysisResult& r);
/// Human-readable report for the CLI's --format text.
std::string to_text(const AnalysisResult& r);

}  // namespace vpdift::sa
