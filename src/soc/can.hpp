// CAN controller model (mailbox style) plus the behavioural engine ECU used
// by the immobilizer case study.
//
// Register map:
//   0x00 TX_ID    (rw)
//   0x04 TX_DLC   (rw) 0..8
//   0x08..0x0f TX_DATA (rw)
//   0x10 TX_CTRL  (w)  write 1: transmit (clearance-checked per data byte)
//   0x14 RX_ID    (r)
//   0x18 RX_DLC   (r)
//   0x1c..0x23 RX_DATA (r) classified with the configured input tag
//   0x24 RX_STATUS(r)  bit0: frame available
//   0x28 RX_POP   (w)  write 1: consume current frame
//   0x2c IE       (rw) bit0: rx interrupt enable
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "dift/tag.hpp"
#include "soc/aes128.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

/// One CAN frame on the wire (tags only meaningful system-internally).
struct CanFrame {
  std::uint32_t id = 0;
  std::uint32_t dlc = 0;
  std::array<std::uint8_t, 8> data{};
};

class CanPeriph : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kTxId = 0x00, kTxDlc = 0x04, kTxData = 0x08,
                                 kTxCtrl = 0x10, kRxId = 0x14, kRxDlc = 0x18,
                                 kRxData = 0x1c, kRxStatus = 0x24, kRxPop = 0x28,
                                 kIe = 0x2c;

  CanPeriph(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget). TX_DATA and RX_DATA are byte
  // windows: each byte keeps its own tag.
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;
  bool byte_window(std::uint64_t off, std::uint32_t size) const override {
    return in_window(off, size, kTxData) || in_window(off, size, kRxData);
  }

  /// Output clearance of the TX path (disengaged = unchecked).
  void set_output_clearance(std::optional<dift::Tag> tag) { tx_clearance_ = tag; }
  /// Classification of received frame data.
  void set_input_tag(dift::Tag tag) { rx_tag_ = tag; }
  /// Wire: frames transmitted by the SW land here.
  void set_on_tx(std::function<void(const CanFrame&)> fn) { on_tx_ = std::move(fn); }
  /// RX interrupt line.
  void set_irq(std::function<void(bool)> fn) { irq_ = std::move(fn); }

  /// Wire: delivers a frame from the bus into the RX mailbox.
  void receive(const CanFrame& frame);

  std::uint64_t frames_sent() const { return tx_count_; }
  std::size_t rx_pending() const { return rx_.size(); }

  /// Fault injection: an error frame on the wire destroys the frame at the
  /// head of the RX mailbox. Returns true if a frame was actually dropped.
  bool fi_drop_rx_frame();
  /// Fault injection: bus-off — TX requests are silently discarded and
  /// incoming frames are lost until the condition is cleared.
  void fi_set_bus_off(bool off);
  bool fi_bus_off() const { return bus_off_; }

  /// Snapshotable device state (mailboxes, counters, fault latches).
  /// Clearances/input tags are policy configuration, not state.
  struct State {
    CanFrame tx;
    std::array<dift::Tag, 8> tx_tags{};
    std::deque<CanFrame> rx;
    std::uint32_t ie = 0;
    std::uint64_t tx_count = 0;
    bool bus_off = false;
  };
  State save_state() const { return {tx_, tx_tags_, rx_, ie_, tx_count_, bus_off_}; }
  /// Restores device state without re-deriving the IRQ line (the restored
  /// PLIC pending set is authoritative for level-triggered sources).
  void load_state(const State& s) {
    tx_ = s.tx;
    tx_tags_ = s.tx_tags;
    rx_ = s.rx;
    ie_ = s.ie;
    tx_count_ = s.tx_count;
    bus_off_ = s.bus_off;
  }

 private:
  /// [off, off+size) lies in the 8-byte data window at `base`.
  static bool in_window(std::uint64_t off, std::uint32_t size, std::uint64_t base) {
    return off >= base && off + size <= base + 8;
  }
  void update_irq();

  tlmlite::TargetSocket tsock_;
  const std::string tx_where_;  ///< clearance-check site name
  CanFrame tx_;
  std::array<dift::Tag, 8> tx_tags_{};
  std::deque<CanFrame> rx_;
  std::optional<dift::Tag> tx_clearance_;
  dift::Tag rx_tag_ = dift::kBottomTag;
  std::uint32_t ie_ = 0;
  std::uint64_t tx_count_ = 0;
  bool bus_off_ = false;
  std::function<void(const CanFrame&)> on_tx_;
  std::function<void(bool)> irq_;
};

/// Behavioural model of the engine ECU on the other end of the CAN bus.
/// Periodically sends a random challenge and verifies the immobilizer's
/// response (AES-128 encryption of the challenge under the shared PIN).
class EngineEcu : public sysc::Module {
 public:
  EngineEcu(sysc::Simulation& sim, std::string name, CanPeriph& immo_can,
            AesKey pin, sysc::Time period = sysc::Time::ms(10));

  static constexpr std::uint32_t kChallengeId = 0x100;
  static constexpr std::uint32_t kResponseId = 0x101;

  void start() { sim_->spawn(run()); }

  /// Called by the CAN wiring when the immobilizer transmits.
  void on_frame(const CanFrame& frame);

  std::uint64_t challenges_sent() const { return challenges_; }
  std::uint64_t auth_ok() const { return auth_ok_; }
  std::uint64_t auth_fail() const { return auth_fail_; }

  /// Snapshotable ECU state. Challenge k goes out at absolute time
  /// k * period, so `challenges` pins the generator's phase the same way
  /// the sensor's frame counter does.
  struct State {
    std::uint32_t lcg = 0xcafebabe;
    std::array<std::uint8_t, 8> challenge{};
    bool awaiting_response = false;
    std::uint64_t challenges = 0, auth_ok = 0, auth_fail = 0;
  };
  State save_state() const {
    return {lcg_, challenge_, awaiting_response_, challenges_, auth_ok_, auth_fail_};
  }
  void load_state(const State& s) {
    lcg_ = s.lcg;
    challenge_ = s.challenge;
    awaiting_response_ = s.awaiting_response;
    challenges_ = s.challenges;
    auth_ok_ = s.auth_ok;
    auth_fail_ = s.auth_fail;
    resume_hop_ = true;
  }

 private:
  sysc::Task run();

  CanPeriph* immo_can_;
  AesKey pin_;
  sysc::Time period_;
  std::uint32_t lcg_ = 0xcafebabe;
  std::array<std::uint8_t, 8> challenge_{};
  bool awaiting_response_ = false;
  std::uint64_t challenges_ = 0, auth_ok_ = 0, auth_fail_ = 0;
  bool resume_hop_ = false;
};

}  // namespace vpdift::soc
