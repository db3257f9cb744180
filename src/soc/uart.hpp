// UART peripheral: clearance-checked TX, attacker-classified RX.
//
// Register map (word access):
//   0x00 TXDATA  (w)  transmit one byte; raises kOutputClearance if the byte's
//                     class may not flow to the configured TX clearance
//   0x04 RXDATA  (r)  next received byte, or 0xffffffff when empty
//   0x08 STATUS  (r)  bit0: tx ready (always 1), bit1: rx available
//   0x0c IE      (rw) bit0: rx interrupt enable
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "dift/tag.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Uart : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kTxData = 0x00, kRxData = 0x04, kStatus = 0x08,
                                 kIe = 0x0c;

  Uart(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;

  /// Output clearance of the TX interface (disengaged = unchecked).
  void set_output_clearance(std::optional<dift::Tag> tag) { tx_clearance_ = tag; }
  /// Classification applied to received bytes (the attacker's input class).
  void set_input_tag(dift::Tag tag) { rx_tag_ = tag; }
  /// Interrupt line (wired to the PLIC by the SoC builder).
  void set_irq(std::function<void(bool)> fn) { irq_ = std::move(fn); }

  /// Host-side stimulus: enqueues bytes as if received on the wire.
  void feed_input(std::string_view bytes);
  /// Everything transmitted so far.
  const std::string& output() const { return tx_log_; }
  void clear_output() { tx_log_.clear(); }
  std::size_t rx_pending() const { return rx_.size(); }

  /// Fault injection: drops up to `n` pending RX bytes (frame losses on the
  /// wire). Returns how many were actually dropped.
  std::size_t fi_drop_rx(std::size_t n);
  /// Fault injection: XORs up to `n` pending RX bytes with `mask` (bit
  /// errors on the wire). Returns how many bytes were corrupted.
  std::size_t fi_corrupt_rx(std::size_t n, std::uint8_t mask);

  /// Snapshotable device state (FIFO contents and interrupt enable; the TX
  /// log is included so a restored run's cumulative output matches a cold
  /// replay). Clearances/input tags are policy configuration, not state.
  struct State {
    std::deque<std::uint8_t> rx;
    std::string tx_log;
    std::uint32_t ie = 0;
  };
  State save_state() const { return {rx_, tx_log_, ie_}; }
  /// Restores device state. Deliberately does NOT re-derive the IRQ line:
  /// the restored PLIC pending set is authoritative (a cold run may have
  /// claimed-and-cleared the level-triggered source already).
  void load_state(const State& s) {
    rx_ = s.rx;
    tx_log_ = s.tx_log;
    ie_ = s.ie;
  }

 private:
  void update_irq();

  tlmlite::TargetSocket tsock_;
  const std::string tx_where_;  ///< clearance-check site name
  std::deque<std::uint8_t> rx_;
  std::string tx_log_;
  std::optional<dift::Tag> tx_clearance_;
  dift::Tag rx_tag_ = dift::kBottomTag;
  std::uint32_t ie_ = 0;
  std::function<void(bool)> irq_;
};

}  // namespace vpdift::soc
