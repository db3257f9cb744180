// Sensor peripheral — the paper's Fig. 4 example module.
//
// A memory-mapped 64-byte data frame of tainted bytes is refilled
// periodically by a kernel thread with pseudo-random "measurement" data
// classified by the run-time configurable `data_tag` register; each refill
// raises an interrupt. Register map:
//   0x00..0x3f DATA_FRAME (r)   tainted sensor data
//   0x40       DATA_TAG   (rw)  security class of generated data; writing it
//                               from classified data trips the checked
//                               Taint -> uint8_t conversion (paper, line 47),
//                               and a class outside the active lattice is
//                               refused with an error response
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "dift/taint.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Sensor : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::size_t kFrameSize = 64;
  static constexpr std::uint64_t kDataTagReg = 0x40;

  Sensor(sysc::Simulation& sim, std::string name,
         sysc::Time period = sysc::Time::ms(25));

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget). DATA_FRAME is a byte window:
  // each byte keeps its own tag.
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;
  bool byte_window(std::uint64_t off, std::uint32_t size) const override {
    return off + size <= kFrameSize;
  }

  /// Interrupt line to the PLIC (pulsed on each new frame).
  void set_irq(std::function<void()> fn) { irq_ = std::move(fn); }
  /// Initial classification of generated data.
  void set_data_tag(dift::Tag tag) { data_tag_ = tag; }
  dift::Tag data_tag() const { return data_tag_; }

  /// Number of frames generated so far.
  std::uint64_t frames_generated() const { return frames_; }

  /// Fault injection: stuck-at — the ADC keeps timing frames and raising
  /// interrupts, but the data window freezes at its current contents.
  void fi_set_stuck(bool stuck) { fi_stuck_ = stuck; }
  bool fi_stuck() const { return fi_stuck_; }

  /// Starts the periodic generation thread (called by the SoC builder once
  /// the simulation graph is complete).
  void start();

  /// Snapshotable device state. Frame k is generated at absolute time
  /// k * period, so `frames` alone pins the generator's phase: a restored
  /// process sleeps to (frames + 1) * period and is back on the cold grid.
  struct State {
    std::array<dift::TaintedByte, kFrameSize> frame{};
    dift::Tag data_tag = dift::kBottomTag;
    std::uint32_t lcg = 0x12345678u;
    std::uint64_t frames = 0;
    bool fi_stuck = false;
  };
  State save_state() const { return {frame_, data_tag_, lcg_, frames_, fi_stuck_}; }
  void load_state(const State& s) {
    frame_ = s.frame;
    data_tag_ = s.data_tag;
    lcg_ = s.lcg;
    frames_ = s.frames;
    fi_stuck_ = s.fi_stuck;
    resume_hop_ = true;
  }

 private:
  sysc::Task run();

  tlmlite::TargetSocket tsock_;
  const std::string tag_where_;  ///< DATA_TAG conversion-check site name
  std::array<dift::TaintedByte, kFrameSize> frame_{};
  dift::Tag data_tag_ = dift::kBottomTag;
  sysc::Time period_;
  std::uint32_t lcg_ = 0x12345678u;
  std::uint64_t frames_ = 0;
  bool fi_stuck_ = false;
  bool resume_hop_ = false;
  std::function<void()> irq_;
};

}  // namespace vpdift::soc
