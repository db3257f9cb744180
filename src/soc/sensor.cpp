#include "soc/sensor.hpp"

#include "dift/context.hpp"

namespace vpdift::soc {

Sensor::Sensor(sysc::Simulation& sim, std::string name, sysc::Time period)
    : Module(sim, std::move(name)), tag_where_(name_ + ".data_tag"), period_(period) {
  tsock_.register_registers(*this, sysc::Time::ns(50));
}

void Sensor::start() { sim_->spawn(run()); }

sysc::Task Sensor::run() {
  while (true) {
    sysc::Time d = period_;
    if (resume_hop_) {
      // Restored mid-interval: frame k lands at k * period in a cold run,
      // so sleep to the next frame's absolute due time instead of a full
      // period from the (arbitrary) restore instant.
      resume_hop_ = false;
      d = period_ * (frames_ + 1) - sim_->now();
    }
    co_await sim_->delay(d);
    // Fill with pseudo-random printable data of the configured class. A
    // stuck sensor keeps its timing (frames and interrupts fire) but the
    // data window freezes — the classic undetectable ADC failure.
    if (!fi_stuck_) {
      for (auto& b : frame_) {
        lcg_ = lcg_ * 1103515245u + 12345u;
        b = dift::TaintedByte(static_cast<std::uint8_t>((lcg_ >> 16) % 96 + 32),
                              data_tag_);
      }
    }
    ++frames_;
    if (irq_) irq_();
  }
}

tlmlite::RegRead Sensor::read(std::uint64_t off, std::uint32_t size) {
  tlmlite::RegRead r;
  if (byte_window(off, size)) {
    for (std::uint32_t i = 0; i < size; ++i) {
      const auto& cell = frame_[off + i];
      r.value |= std::uint32_t(cell.value()) << (8 * i);
      r.tags |= std::uint32_t(cell.tag()) << (8 * i);
    }
    return r;
  }
  // The configured security class itself is not confidential.
  if (off == kDataTagReg) r.value = data_tag_;
  else r = tlmlite::reg_error();
  return r;
}

tlmlite::Response Sensor::write(std::uint64_t off, std::uint32_t size,
                                std::uint32_t value, std::optional<dift::Tag> tag) {
  const dift::Tag t = tag.value_or(dift::kBottomTag);
  if (byte_window(off, size)) {
    for (std::uint32_t i = 0; i < size; ++i)
      frame_[off + i] = dift::TaintedByte(static_cast<std::uint8_t>(value >> (8 * i)), t);
    return tlmlite::Response::kOk;
  }
  if (off != kDataTagReg) return tlmlite::Response::kAddressError;
  // Mirrors the paper's `data_tag = *ptr`: the Taint -> uint8_t conversion
  // requires the incoming byte to be cleared for the engine's conversion
  // clearance. Checked here rather than through the implicit conversion so
  // that a violation names the register's bus address and site.
  const dift::DiftContext* ctx = dift::DiftContext::active();
  dift::check_flow(t, ctx ? ctx->conversion_clearance : dift::kBottomTag,
                   dift::ViolationKind::kConversion, 0, bus_address(off),
                   tag_where_.c_str());
  // The byte becomes a security class: one outside the active lattice
  // would index its tables out of range once it tags a frame, so the store
  // is refused (the CPU takes a store access fault) and the class stays.
  const auto cls = static_cast<dift::Tag>(value & 0xffu);
  if (ctx && cls >= ctx->lattice().size()) return tlmlite::Response::kGenericError;
  data_tag_ = cls;
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
