// Minimal CPU+RAM harness for ISA-level core tests.
#pragma once

#include "rv/core.hpp"
#include "rvasm/assembler.hpp"
#include "soc/memory.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/bus.hpp"

namespace vpdift::testutil {

/// Flow checks counted so far on this thread by `core` and the active
/// DiftContext together: the core counts its execution-clearance checks,
/// the context every other one (VirtualPrototype::capture_stats sums the
/// same two).
template <typename W>
std::uint64_t flow_checks(const rv::Core<W>& core) {
  return core.stats().flow_checks + dift::detail::g_active.flow_checks;
}

template <typename W>
struct MicroVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram;
  rv::Core<W> core;

  explicit MicroVm(std::size_t ram_bytes = 64 * 1024)
      : ram(sim, "ram", ram_bytes, rv::WordOps<W>::kTainted) {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    core.set_bus(bus);
    core.set_dmi(ram.dmi_data(), ram.tags(), ram.written_pages(),
                 ram.code_lines(), ram.code_epoch(), kBase,
                 ram.size(), ram.tags() ? &ram.shadow() : nullptr);
    core.set_pc(kBase);
  }

  void load(const rvasm::Program& p) {
    ram.load_image(p, kBase);
    core.set_pc(static_cast<std::uint32_t>(p.entry));
  }

  /// Assembles `emit` with an `ebreak`-terminated epilogue and runs until the
  /// breakpoint traps (mtvec=0 -> pc wraps to 0 -> we stop on instret budget).
  /// Simpler: run an exact number of steps.
  std::uint32_t reg(std::uint8_t r) const { return rv::WordOps<W>::value(core.reg(r)); }
  dift::Tag tag(std::uint8_t r) const { return rv::WordOps<W>::tag(core.reg(r)); }
};

}  // namespace vpdift::testutil
