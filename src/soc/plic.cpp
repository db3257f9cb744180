#include "soc/plic.hpp"

namespace vpdift::soc {

Plic::Plic(sysc::Simulation& sim, std::string name) : Module(sim, std::move(name)) {
  tsock_.register_registers(*this, sysc::Time::ns(20));
}

void Plic::raise(std::uint32_t src) {
  pending_ |= (1u << (src & 31)) & ~fi_suppress_;
  update();
}

void Plic::set_level(std::uint32_t src, bool level) {
  if (level)
    pending_ |= (1u << (src & 31)) & ~fi_suppress_;
  else
    pending_ &= ~(1u << (src & 31));
  update();
}

void Plic::fi_set_suppressed(std::uint32_t mask) {
  fi_suppress_ = mask;
  pending_ &= ~mask;
  update();
}

void Plic::update() {
  if (ext_irq_) ext_irq_((pending_ & enable_) != 0);
}

tlmlite::RegRead Plic::read(std::uint64_t off, std::uint32_t) {
  switch (off) {
    case kPending: return tlmlite::reg_value(pending_);
    case kEnable: return tlmlite::reg_value(enable_);
    case kClaim: {
      std::uint32_t src = 0;
      const std::uint32_t active = pending_ & enable_;
      for (std::uint32_t s = 1; s < 32; ++s)
        if (active & (1u << s)) { src = s; break; }
      if (src != 0) {
        pending_ &= ~(1u << src);
        update();
      }
      return tlmlite::reg_value(src);
    }
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response Plic::write(std::uint64_t off, std::uint32_t, std::uint32_t value,
                              std::optional<dift::Tag>) {
  switch (off) {
    case kEnable:
      enable_ = value;
      update();
      break;
    case kPending:
    case kClaim: break;  // completion: ignored in this simplified model
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
