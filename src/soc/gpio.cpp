#include "soc/gpio.hpp"

#include "dift/context.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::soc {

Gpio::Gpio(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), out_where_(name_ + ".out") {
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
}

void Gpio::transport(tlmlite::Payload& p, sysc::Time& delay) {
  delay += sysc::Time::ns(20);
  p.response = tlmlite::Response::kOk;
  auto rd_u32 = [&](std::uint32_t v, dift::Tag tag) {
    tlmlite::fill_reg_u32(p, v, tag);
  };
  auto wr_u32 = [&](std::uint32_t& v) {
    // Byte-lane merge, clamped to the register width (shift-UB otherwise).
    const std::uint32_t n = p.length < 4 ? p.length : 4;
    for (std::uint32_t i = 0; i < n; ++i) {
      v &= ~(0xffu << (8 * i));
      v |= std::uint32_t(p.data[i]) << (8 * i);
    }
  };
  switch (p.address) {
    case kOut:
      if (p.is_read()) {
        rd_u32(out_, dift::kBottomTag);
      } else {
        if (p.tainted() && out_clearance_)
          for (std::uint32_t i = 0; i < p.length; ++i)
            dift::check_flow(p.tags[i], *out_clearance_,
                             dift::ViolationKind::kOutputClearance, 0,
                             p.address, out_where_.c_str());
        wr_u32(out_);
        if (on_out_) on_out_(out_);
      }
      break;
    case kIn:
      if (p.is_read()) rd_u32(in_, in_tag_);
      break;
    case kDir:
      p.is_read() ? rd_u32(dir_, dift::kBottomTag) : wr_u32(dir_);
      break;
    default:
      p.response = tlmlite::Response::kAddressError;
      break;
  }
}

}  // namespace vpdift::soc
