#include "soc/uart.hpp"

#include "dift/context.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::soc {

Uart::Uart(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), tx_where_(name_ + ".tx") {
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
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

void Uart::transport(tlmlite::Payload& p, sysc::Time& delay) {
  delay += sysc::Time::ns(50);
  p.response = tlmlite::Response::kOk;
  switch (p.address) {
    case kTxData:
      if (!p.is_write()) {
        // Write-only register: reads must still fill the payload (kOk with
        // uninitialized data/tags leaks whatever the initiator had there).
        tlmlite::fill_reg_u32(p, 0);
        break;
      }
      if (p.tainted() && tx_clearance_) {
        // Every payload byte must be cleared to leave, not just byte 0 — a
        // multi-byte store with a classified high byte must not slip out.
        dift::Tag t = p.tags[0];
        for (std::uint32_t i = 1; i < p.length; ++i) t = dift::lub(t, p.tags[i]);
        dift::check_flow(t, *tx_clearance_,
                         dift::ViolationKind::kOutputClearance, 0, p.address,
                         tx_where_.c_str());
      }
      tx_log_.push_back(static_cast<char>(p.data[0]));
      break;
    case kRxData: {
      if (!p.is_read()) break;
      std::uint32_t v = 0xffffffffu;
      dift::Tag t = dift::kBottomTag;
      if (!rx_.empty()) {
        v = rx_.front();
        rx_.pop_front();
        t = rx_tag_;
        update_irq();
      }
      tlmlite::fill_reg_u32(p, v, t);
      break;
    }
    case kStatus:
      if (p.is_read()) tlmlite::fill_reg_u32(p, 1u | (rx_.empty() ? 0u : 2u));
      break;
    case kIe:
      if (p.is_write()) {
        ie_ = p.data[0];
        update_irq();
      } else {
        tlmlite::fill_reg_u32(p, ie_);
      }
      break;
    default:
      p.response = tlmlite::Response::kAddressError;
      break;
  }
}

}  // namespace vpdift::soc
