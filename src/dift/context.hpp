// Active DIFT engine context.
//
// Taint<T> operators need the active IFP to combine tags (LUB) and to check
// flows. Because they run on the simulation's hottest path (every executed
// instruction of the VP+), the active lattice's dense tables are exposed
// through module-level pointers consulted by the inline free functions
// lub()/check_flow() below. A DiftContext is a RAII scope that installs a
// lattice as the active one (contexts nest; the previous one is restored).
//
// Each simulation is single-threaded (like a SystemC kernel), but several
// independent simulations may run concurrently on different threads (the
// campaign runner does exactly that), so the active tables are thread_local:
// every thread carries its own active-IFP slot, and a VP is *thread-confined*
// — all calls into one VirtualPrototype must come from the thread that runs
// its simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dift/lattice.hpp"
#include "dift/tag.hpp"
#include "dift/violation.hpp"

namespace vpdift::dift {

namespace detail {
struct ActiveTables {
  const Tag* lub = nullptr;
  const std::uint8_t* flow = nullptr;
  std::size_t n = 0;
  std::uint64_t lub_calls = 0;
  std::uint64_t flow_checks = 0;
  std::uint64_t pc_hint = 0;  ///< pc of the instruction driving the bus
};
// constinit: guarantees constant (wrapper-free) TLS initialization — the
// hot path must not pay a guard check, and g++'s lazy-init TLS wrapper
// trips UBSan's null-member check when the object escapes through it.
extern thread_local constinit ActiveTables g_active;
}  // namespace detail

/// A violation captured in monitor (record-and-continue) mode.
struct ViolationRecord {
  ViolationKind kind{};
  Tag source = 0;
  Tag required = 0;
  std::uint64_t pc = 0;
  std::uint64_t address = 0;
  std::string where;
};

/// RAII scope installing `lattice` as the engine's active IFP.
class DiftContext {
 public:
  explicit DiftContext(const Lattice& lattice);
  ~DiftContext();

  DiftContext(const DiftContext&) = delete;
  DiftContext& operator=(const DiftContext&) = delete;

  const Lattice& lattice() const { return *lattice_; }

  /// Clearance used by checked Taint<T> -> T conversions (default: kBottomTag,
  /// i.e. only unclassified data converts implicitly — mirrors the paper's
  /// "requires by default a low confidentiality tag").
  Tag conversion_clearance = kBottomTag;

  /// Monitor mode: instead of throwing, check_flow() records the violation
  /// and lets execution continue. Useful while *developing* a policy — one
  /// run surfaces every flow the policy would forbid (enforcement mode stops
  /// at the first).
  void set_monitor_mode(bool on) { monitor_ = on; }
  bool monitor_mode() const { return monitor_; }
  const std::vector<ViolationRecord>& recorded() const { return recorded_; }
  void record(ViolationRecord r) { recorded_.push_back(std::move(r)); }

  /// Number of LUB combinations / flow checks since construction.
  std::uint64_t lub_calls() const { return detail::g_active.lub_calls; }
  std::uint64_t flow_checks() const { return detail::g_active.flow_checks; }

  static DiftContext* active() { return s_active_; }

 private:
  const Lattice* lattice_;
  DiftContext* previous_;
  detail::ActiveTables saved_;
  bool monitor_ = false;
  std::vector<ViolationRecord> recorded_;
  static thread_local constinit DiftContext* s_active_;
};

namespace detail {
/// Out-of-line throw of lub() without an active context, kept cold so that
/// lub() inlines into its callers without forcing them a stack frame.
[[noreturn, gnu::cold]] void lub_without_context();
}  // namespace detail

/// Least upper bound of two tags under the active IFP.
inline Tag lub(Tag a, Tag b) {
  if (a == b) return a;
  auto& t = detail::g_active;
  if (!t.lub) detail::lub_without_context();
  ++t.lub_calls;
  return t.lub[static_cast<std::size_t>(a) * t.n + b];
}

/// Set by the CPU before it drives a bus transaction so that clearance
/// checks raised inside peripherals can attribute the violation to the
/// offending instruction.
inline void set_pc_hint(std::uint64_t pc) { detail::g_active.pc_hint = pc; }

namespace detail {
/// Out-of-line half of check_flow(): the flow was not allowed, or no context
/// is active. Records (monitor mode) or throws; kept cold so the allowed
/// path inlines into every load, store and branch handler.
[[gnu::cold]] void flow_violation(Tag source, Tag required, ViolationKind kind,
                                  std::uint64_t pc, std::uint64_t address,
                                  const char* where);
}  // namespace detail

/// Raises PolicyViolation(kind) unless data of class `source` may flow to
/// `required` under the active IFP.
/// In monitor mode the violation is recorded instead and execution continues.
inline void check_flow(Tag source, Tag required, ViolationKind kind,
                       std::uint64_t pc = 0, std::uint64_t address = 0,
                       const char* where = "") {
  // Without an active context the check falls through to the cold half,
  // which throws, so no throw is inlined into the callers.
  if (source == required) return;
  auto& t = detail::g_active;
  if (t.flow) {
    ++t.flow_checks;
    if (t.flow[static_cast<std::size_t>(source) * t.n + required] != 0) return;
  }
  detail::flow_violation(source, required, kind, pc, address, where);
}

}  // namespace vpdift::dift
