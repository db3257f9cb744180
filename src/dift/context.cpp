#include "dift/context.hpp"

#include <cstdio>

namespace vpdift::dift {

namespace detail {
thread_local constinit ActiveTables g_active;
}  // namespace detail

thread_local constinit DiftContext* DiftContext::s_active_ = nullptr;

DiftContext::DiftContext(const Lattice& lattice)
    : lattice_(&lattice), previous_(s_active_), saved_(detail::g_active) {
  s_active_ = this;
  detail::g_active.lub = lattice.lub_table();
  detail::g_active.flow = lattice.flow_table();
  detail::g_active.n = lattice.size();
  detail::g_active.lub_calls = 0;
  detail::g_active.flow_checks = 0;
}

DiftContext::~DiftContext() {
  detail::g_active = saved_;
  s_active_ = previous_;
}

void detail::lub_without_context() {
  throw LatticeError("DIFT: tag combination without an active DiftContext");
}

void detail::flow_violation(Tag source, Tag required, ViolationKind kind,
                            std::uint64_t pc, std::uint64_t address,
                            const char* where) {
  if (!g_active.flow)
    throw LatticeError("DIFT: flow check without an active DiftContext");
  if (pc == 0) pc = g_active.pc_hint;
  if (DiftContext* ctx = DiftContext::active(); ctx && ctx->monitor_mode()) {
    ctx->record({kind, source, required, pc, address, where});
    return;
  }
  throw PolicyViolation(kind, source, required, pc, address, where);
}

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOutputClearance: return "output-clearance";
    case ViolationKind::kFetchClearance: return "fetch-clearance";
    case ViolationKind::kBranchClearance: return "branch-clearance";
    case ViolationKind::kMemAddrClearance: return "memaddr-clearance";
    case ViolationKind::kStoreClearance: return "store-clearance";
    case ViolationKind::kConversion: return "conversion";
    case ViolationKind::kDeclassification: return "declassification";
    case ViolationKind::kExecUnitClearance: return "exec-unit-clearance";
  }
  return "unknown";
}

PolicyViolation::PolicyViolation(ViolationKind kind, Tag source, Tag required,
                                 std::uint64_t pc, std::uint64_t address,
                                 std::string where)
    : std::runtime_error("security policy violation [" +
                         std::string(to_string(kind)) + "] at " +
                         (where.empty() ? std::string("<engine>") : where) +
                         ": flow of tag " + std::to_string(source) +
                         " to clearance " + std::to_string(required) +
                         " is forbidden (pc=0x" + [pc] {
                           char buf[17];
                           std::snprintf(buf, sizeof buf, "%llx",
                                         static_cast<unsigned long long>(pc));
                           return std::string(buf);
                         }() + ")"),
      kind_(kind),
      source_(source),
      required_(required),
      pc_(pc),
      address_(address),
      where_(std::move(where)) {}

}  // namespace vpdift::dift
