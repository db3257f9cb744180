#include "soc/can.hpp"

#include "dift/context.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::soc {

CanPeriph::CanPeriph(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), tx_where_(name_ + ".tx") {
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
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

void CanPeriph::transport(tlmlite::Payload& p, sysc::Time& delay) {
  delay += sysc::Time::ns(80);
  p.response = tlmlite::Response::kOk;
  const std::uint64_t a = p.address;

  auto rd_u32 = [&](std::uint32_t v) { tlmlite::fill_reg_u32(p, v); };
  auto wr_u32 = [&](std::uint32_t& v) { v = tlmlite::collect_reg_u32(p); };

  if (a >= kTxData && a + p.length <= kTxData + 8) {
    if (p.is_write()) {
      for (std::uint32_t i = 0; i < p.length; ++i) {
        tx_.data[a - kTxData + i] = p.data[i];
        tx_tags_[a - kTxData + i] = p.tainted() ? p.tags[i] : dift::kBottomTag;
      }
    } else {
      for (std::uint32_t i = 0; i < p.length; ++i) {
        p.data[i] = tx_.data[a - kTxData + i];
        if (p.tainted()) p.tags[i] = tx_tags_[a - kTxData + i];
      }
    }
    return;
  }
  if (a >= kRxData && a + p.length <= kRxData + 8) {
    if (!p.is_read()) { p.response = tlmlite::Response::kGenericError; return; }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      p.data[i] = rx_.empty() ? 0 : rx_.front().data[a - kRxData + i];
      if (p.tainted()) p.tags[i] = rx_tag_;
    }
    return;
  }

  switch (a) {
    case kTxId: p.is_read() ? rd_u32(tx_.id) : wr_u32(tx_.id); break;
    case kTxDlc: p.is_read() ? rd_u32(tx_.dlc) : wr_u32(tx_.dlc); break;
    case kTxCtrl:
      if (p.is_write() && p.data[0] == 1 && !bus_off_) {
        // Output clearance: every payload byte must be allowed to leave.
        if (tx_clearance_) {
          for (std::uint32_t i = 0; i < tx_.dlc && i < 8; ++i)
            dift::check_flow(tx_tags_[i], *tx_clearance_,
                             dift::ViolationKind::kOutputClearance, 0,
                             kTxData + i, tx_where_.c_str());
        }
        ++tx_count_;
        if (on_tx_) on_tx_(tx_);
      }
      break;
    case kRxId: rd_u32(rx_.empty() ? 0 : rx_.front().id); break;
    case kRxDlc: rd_u32(rx_.empty() ? 0 : rx_.front().dlc); break;
    case kRxStatus: rd_u32(rx_.empty() ? 0u : 1u); break;
    case kRxPop:
      if (p.is_write() && !rx_.empty()) {
        rx_.pop_front();
        update_irq();
      }
      break;
    case kIe:
      if (p.is_write()) {
        wr_u32(ie_);
        update_irq();
      } else {
        rd_u32(ie_);
      }
      break;
    default: p.response = tlmlite::Response::kAddressError; break;
  }
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
