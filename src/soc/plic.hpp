// Simplified platform-level interrupt controller (PLIC).
//
// 32 level/pulse sources, one hart target. The external-interrupt line to
// the core is asserted while any enabled source is pending and unclaimed.
//
// Register map:
//   0x00 PENDING (r)
//   0x04 ENABLE  (rw)
//   0x08 CLAIM   (r: highest pending&enabled source, clears it; 0 if none)
//                (w: completion — ignored in this simplified model)
#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <string>

#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Plic : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kPending = 0x00, kEnable = 0x04, kClaim = 0x08;

  Plic(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;

  /// External-interrupt line (level) into the core.
  void set_ext_irq(std::function<void(bool)> fn) { ext_irq_ = std::move(fn); }

  /// Gateway: peripheral raises source `src` (1..31).
  void raise(std::uint32_t src);
  /// Gateway for level-style sources.
  void set_level(std::uint32_t src, bool level);

  std::uint32_t pending() const { return pending_; }

  /// Fault injection: sources whose bit is set in `mask` never reach the
  /// pending register (a dead interrupt line); already-pending suppressed
  /// sources are cleared.
  void fi_set_suppressed(std::uint32_t mask);
  std::uint32_t fi_suppressed() const { return fi_suppress_; }

  /// Snapshotable device state. Load does not re-drive the ext-irq line;
  /// the restored CSR mip carries the captured level.
  struct State {
    std::uint32_t pending = 0;
    std::uint32_t enable = 0;
    std::uint32_t fi_suppress = 0;
  };
  State save_state() const { return {pending_, enable_, fi_suppress_}; }
  void load_state(const State& s) {
    pending_ = s.pending;
    enable_ = s.enable;
    fi_suppress_ = s.fi_suppress;
  }

 private:
  void update();

  tlmlite::TargetSocket tsock_;
  std::uint32_t pending_ = 0;
  std::uint32_t enable_ = 0;
  std::uint32_t fi_suppress_ = 0;
  std::function<void(bool)> ext_irq_;
};

}  // namespace vpdift::soc
