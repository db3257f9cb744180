#include "soc/uart.hpp"

#include "dift/context.hpp"

namespace vpdift::soc {

Uart::Uart(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), tx_where_(name_ + ".tx") {
  tsock_.register_registers(*this, sysc::Time::ns(50));
}

void Uart::feed_input(std::string_view bytes) {
  for (char c : bytes) rx_.push_back(static_cast<std::uint8_t>(c));
  update_irq();
}

std::size_t Uart::fi_drop_rx(std::size_t n) {
  std::size_t dropped = 0;
  while (dropped < n && !rx_.empty()) {
    rx_.pop_front();
    ++dropped;
  }
  if (dropped) update_irq();
  return dropped;
}

std::size_t Uart::fi_corrupt_rx(std::size_t n, std::uint8_t mask) {
  const std::size_t hit = n < rx_.size() ? n : rx_.size();
  for (std::size_t i = 0; i < hit; ++i) rx_[i] ^= mask;
  return hit;
}

void Uart::update_irq() {
  if (irq_) irq_((ie_ & 1u) != 0 && !rx_.empty());
}

tlmlite::RegRead Uart::read(std::uint64_t off, std::uint32_t) {
  switch (off) {
    case kTxData:
      // Write-only register: reads as zero.
      return tlmlite::reg_value(0);
    case kRxData: {
      if (rx_.empty()) return tlmlite::reg_value(0xffffffffu);
      const std::uint32_t v = rx_.front();
      rx_.pop_front();
      update_irq();
      return tlmlite::reg_value(v, rx_tag_);
    }
    case kStatus: return tlmlite::reg_value(1u | (rx_.empty() ? 0u : 2u));
    case kIe: return tlmlite::reg_value(ie_);
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response Uart::write(std::uint64_t off, std::uint32_t, std::uint32_t value,
                              std::optional<dift::Tag> tag) {
  switch (off) {
    case kTxData:
      // The tag is the LUB of every byte written (the payload shim combines
      // a multi-byte payload's lanes), so a classified high byte cannot
      // slip out behind a cleared low one.
      if (tag && tx_clearance_)
        dift::check_flow(*tag, *tx_clearance_, dift::ViolationKind::kOutputClearance,
                         0, bus_address(off), tx_where_.c_str());
      tx_log_.push_back(static_cast<char>(value));
      break;
    case kIe:
      ie_ = value & 0xffu;
      update_irq();
      break;
    case kRxData:
    case kStatus: break;
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
