#include "soc/gpio.hpp"

#include "dift/context.hpp"

namespace vpdift::soc {

Gpio::Gpio(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), out_where_(name_ + ".out") {
  tsock_.register_registers(*this, sysc::Time::ns(20));
}

tlmlite::RegRead Gpio::read(std::uint64_t off, std::uint32_t) {
  switch (off) {
    case kOut: return tlmlite::reg_value(out_);
    case kIn: return tlmlite::reg_value(in_, in_tag_);
    case kDir: return tlmlite::reg_value(dir_);
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response Gpio::write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                              std::optional<dift::Tag> tag) {
  // Byte-lane merge, clamped to the register width.
  const auto merge = [size, value](std::uint32_t& v) {
    for (std::uint32_t i = 0; i < size && i < 4; ++i) {
      v &= ~(0xffu << (8 * i));
      v |= value & (0xffu << (8 * i));
    }
  };
  switch (off) {
    case kOut:
      // One check per byte written, as for a byte-wise output port.
      if (tag && out_clearance_)
        for (std::uint32_t i = 0; i < size; ++i)
          dift::check_flow(*tag, *out_clearance_,
                           dift::ViolationKind::kOutputClearance, 0,
                           bus_address(off), out_where_.c_str());
      merge(out_);
      if (on_out_) on_out_(out_);
      break;
    case kDir: merge(dir_); break;
    case kIn: break;
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
