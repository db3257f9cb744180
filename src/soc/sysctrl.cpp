#include "soc/sysctrl.hpp"

namespace vpdift::soc {

SysCtrl::SysCtrl(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)) {
  tsock_.register_registers(*this, sysc::Time::ns(10));
}

tlmlite::RegRead SysCtrl::read(std::uint64_t off, std::uint32_t) {
  if (off == kExit || off == kMark) return {};  // write-only
  return tlmlite::reg_error();
}

tlmlite::Response SysCtrl::write(std::uint64_t off, std::uint32_t, std::uint32_t value,
                                 std::optional<dift::Tag>) {
  switch (off) {
    case kExit:
      exit_code_ = value;
      exited_ = true;
      sim_->stop();
      break;
    case kMark: markers_.push_back(static_cast<char>(value)); break;
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
