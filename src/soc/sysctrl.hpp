// System controller: firmware-visible exit and test-status interface.
//
// Register map:
//   0x00 EXIT   (w) stop the simulation with this exit code
//   0x04 MARK   (w) append a marker byte to the host-visible marker log
//                   (used by the attack suite to flag "payload executed")
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class SysCtrl : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kExit = 0x00, kMark = 0x04;

  SysCtrl(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;

  bool exited() const { return exited_; }
  std::uint32_t exit_code() const { return exit_code_; }
  const std::string& markers() const { return markers_; }

  /// Snapshotable device state (the marker log is cumulative, like the UART
  /// TX log, so restored runs compose with the golden prefix).
  struct State {
    bool exited = false;
    std::uint32_t exit_code = 0;
    std::string markers;
  };
  State save_state() const { return {exited_, exit_code_, markers_}; }
  void load_state(const State& s) {
    exited_ = s.exited;
    exit_code_ = s.exit_code;
    markers_ = s.markers;
  }

 private:

  tlmlite::TargetSocket tsock_;
  bool exited_ = false;
  std::uint32_t exit_code_ = 0;
  std::string markers_;
};

}  // namespace vpdift::soc
