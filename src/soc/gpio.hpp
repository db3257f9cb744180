// GPIO port: 32 output pins with output-clearance checking, 32 host-driven
// input pins classified with a configurable tag. Models the "unsecured debug
// port" of the paper's threat model: a forgotten debug pin wired to the
// outside is an output interface, and the policy's clearance applies to it
// like to any UART.
//
// Register map:
//   0x00 OUT (rw)  output pin levels (clearance-checked on write)
//   0x04 IN  (r)   input pin levels (classified)
//   0x08 DIR (rw)  direction mask (1 = output); informational in this model
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "dift/tag.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Gpio : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kOut = 0x00, kIn = 0x04, kDir = 0x08;

  Gpio(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;

  void set_output_clearance(std::optional<dift::Tag> tag) { out_clearance_ = tag; }
  void set_input_tag(dift::Tag tag) { in_tag_ = tag; }
  /// Called whenever the output register changes.
  void set_on_output(std::function<void(std::uint32_t)> fn) { on_out_ = std::move(fn); }

  /// Host-side stimulus.
  void set_input_pins(std::uint32_t levels) { in_ = levels; }
  std::uint32_t output_pins() const { return out_; }
  std::uint32_t direction() const { return dir_; }

  /// Snapshotable device state (pin levels and direction; clearances are
  /// policy configuration).
  struct State {
    std::uint32_t out = 0, in = 0, dir = 0;
  };
  State save_state() const { return {out_, in_, dir_}; }
  void load_state(const State& s) {
    out_ = s.out;
    in_ = s.in;
    dir_ = s.dir;
  }

 private:
  tlmlite::TargetSocket tsock_;
  const std::string out_where_;  ///< clearance-check site name
  std::uint32_t out_ = 0, in_ = 0, dir_ = 0;
  std::optional<dift::Tag> out_clearance_;
  dift::Tag in_tag_ = dift::kBottomTag;
  std::function<void(std::uint32_t)> on_out_;
};

}  // namespace vpdift::soc
