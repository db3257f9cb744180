#include "soc/can.hpp"

#include "dift/context.hpp"

namespace vpdift::soc {

CanPeriph::CanPeriph(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), tx_where_(name_ + ".tx") {
  tsock_.register_registers(*this, sysc::Time::ns(80));
}

void CanPeriph::receive(const CanFrame& frame) {
  if (bus_off_) return;  // a bus-off controller sees nothing on the wire
  rx_.push_back(frame);
  update_irq();
}

bool CanPeriph::fi_drop_rx_frame() {
  if (rx_.empty()) return false;
  rx_.pop_front();
  update_irq();
  return true;
}

void CanPeriph::fi_set_bus_off(bool off) {
  bus_off_ = off;
  if (off) {
    rx_.clear();  // pending mailbox content is lost with the bus
    update_irq();
  }
}

void CanPeriph::update_irq() {
  if (irq_) irq_((ie_ & 1u) != 0 && !rx_.empty());
}

tlmlite::RegRead CanPeriph::read(std::uint64_t off, std::uint32_t size) {
  if (in_window(off, size, kTxData)) {
    tlmlite::RegRead r;
    for (std::uint32_t i = 0; i < size; ++i) {
      r.value |= std::uint32_t(tx_.data[off - kTxData + i]) << (8 * i);
      r.tags |= std::uint32_t(tx_tags_[off - kTxData + i]) << (8 * i);
    }
    return r;
  }
  if (in_window(off, size, kRxData)) {
    tlmlite::RegRead r;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (!rx_.empty())
        r.value |= std::uint32_t(rx_.front().data[off - kRxData + i]) << (8 * i);
      r.tags |= std::uint32_t(rx_tag_) << (8 * i);
    }
    return r;
  }
  switch (off) {
    case kTxId: return tlmlite::reg_value(tx_.id);
    case kTxDlc: return tlmlite::reg_value(tx_.dlc);
    case kRxId: return tlmlite::reg_value(rx_.empty() ? 0 : rx_.front().id);
    case kRxDlc: return tlmlite::reg_value(rx_.empty() ? 0 : rx_.front().dlc);
    case kRxStatus: return tlmlite::reg_value(rx_.empty() ? 0u : 1u);
    case kIe: return tlmlite::reg_value(ie_);
    case kTxCtrl:
    case kRxPop: return {};
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response CanPeriph::write(std::uint64_t off, std::uint32_t size,
                                   std::uint32_t value, std::optional<dift::Tag> tag) {
  if (in_window(off, size, kTxData)) {
    for (std::uint32_t i = 0; i < size; ++i) {
      tx_.data[off - kTxData + i] = static_cast<std::uint8_t>(value >> (8 * i));
      tx_tags_[off - kTxData + i] = tag.value_or(dift::kBottomTag);
    }
    return tlmlite::Response::kOk;
  }
  if (in_window(off, size, kRxData)) return tlmlite::Response::kGenericError;
  switch (off) {
    case kTxId: tx_.id = value; break;
    case kTxDlc: tx_.dlc = value; break;
    case kTxCtrl:
      if ((value & 0xffu) == 1 && !bus_off_) {
        // Output clearance: every data byte must be allowed to leave.
        if (tx_clearance_) {
          for (std::uint32_t i = 0; i < tx_.dlc && i < 8; ++i)
            dift::check_flow(tx_tags_[i], *tx_clearance_,
                             dift::ViolationKind::kOutputClearance, 0,
                             bus_address(kTxData + i), tx_where_.c_str());
        }
        ++tx_count_;
        if (on_tx_) on_tx_(tx_);
      }
      break;
    case kRxPop:
      if (!rx_.empty()) {
        rx_.pop_front();
        update_irq();
      }
      break;
    case kIe:
      ie_ = value;
      update_irq();
      break;
    case kRxId:
    case kRxDlc:
    case kRxStatus: break;
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

EngineEcu::EngineEcu(sysc::Simulation& sim, std::string name, CanPeriph& immo_can,
                     AesKey pin, sysc::Time period)
    : Module(sim, std::move(name)),
      immo_can_(&immo_can),
      pin_(pin),
      period_(period) {}

sysc::Task EngineEcu::run() {
  while (true) {
    sysc::Time d = period_;
    if (resume_hop_) {
      // Restored mid-interval: challenge k lands at k * period in a cold
      // run; sleep to the next challenge's absolute due time.
      resume_hop_ = false;
      d = period_ * (challenges_ + 1) - sim_->now();
    }
    co_await sim_->delay(d);
    // New random challenge.
    for (auto& b : challenge_) {
      lcg_ = lcg_ * 1103515245u + 12345u;
      b = static_cast<std::uint8_t>(lcg_ >> 16);
    }
    CanFrame f;
    f.id = kChallengeId;
    f.dlc = 8;
    f.data = challenge_;
    awaiting_response_ = true;
    ++challenges_;
    immo_can_->receive(f);
  }
}

void EngineEcu::on_frame(const CanFrame& frame) {
  if (frame.id != kResponseId || !awaiting_response_) return;
  awaiting_response_ = false;
  AesBlock block{};
  for (int i = 0; i < 8; ++i) block[i] = challenge_[i];
  const AesBlock expected = aes128_encrypt(pin_, block);
  bool ok = frame.dlc == 8;
  for (int i = 0; ok && i < 8; ++i) ok = frame.data[i] == expected[i];
  if (ok) ++auth_ok_; else ++auth_fail_;
}

}  // namespace vpdift::soc
