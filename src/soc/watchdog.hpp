// Watchdog timer: if the firmware stops petting it, the SoC is reset.
//
// Register map:
//   0x00 LOAD   (rw) timeout in microseconds (writing re-arms)
//   0x04 PET    (w)  write the magic value 0x5afe to restart the countdown
//   0x08 CTRL   (rw) bit0: enable
//   0x0c STATUS (r)  number of watchdog resets fired so far
#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <string>

#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Watchdog : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kLoad = 0x00, kPet = 0x04, kCtrl = 0x08,
                                 kStatus = 0x0c;
  static constexpr std::uint32_t kPetMagic = 0x5afe;

  Watchdog(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;

  /// Fired on expiry (the SoC wires this to a CPU reset).
  void set_on_timeout(std::function<void()> fn) { on_timeout_ = std::move(fn); }

  void start() { sim_->spawn(run()); }

  bool enabled() const { return enabled_; }
  std::uint32_t resets_fired() const { return resets_; }

  /// Snapshotable device state. `deadline_us` is absolute simulated time, so
  /// it stays meaningful across a sim-time-preserving restore.
  struct State {
    std::uint32_t timeout_us = 0;
    std::uint64_t deadline_us = ~0ull;
    bool enabled = false;
    std::uint32_t resets = 0;
  };
  State save_state() const { return {timeout_us_, deadline_us_, enabled_, resets_}; }
  void load_state(const State& s) {
    timeout_us_ = s.timeout_us;
    deadline_us_ = s.deadline_us;
    enabled_ = s.enabled;
    resets_ = s.resets;
    resume_hop_ = true;
  }

 private:
  sysc::Task run();
  void check();

  tlmlite::TargetSocket tsock_;
  std::uint32_t timeout_us_ = 0;
  std::uint64_t deadline_us_ = ~0ull;
  bool enabled_ = false;
  std::uint32_t resets_ = 0;
  bool resume_hop_ = false;
  std::function<void()> on_timeout_;
};

}  // namespace vpdift::soc
