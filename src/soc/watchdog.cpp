#include "soc/watchdog.hpp"

namespace vpdift::soc {

Watchdog::Watchdog(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)) {
  tsock_.register_registers(*this, sysc::Time::ns(20));
}

sysc::Task Watchdog::run() {
  // Poll in bounded slices (same pattern as the CLINT: a re-arm while we
  // sleep cannot wake us, so the slice bounds the detection latency). The
  // checks land on the absolute 50 us grid, which lets a restored process
  // realign to the same check times a cold run would have used.
  while (true) {
    sysc::Time d = sysc::Time::us(50);
    if (resume_hop_) {
      // Restored mid-interval: sleep to the next grid point (possibly the
      // current instant) instead of a full slice. No check happens before
      // that point — a past-due deadline must still bite on the grid, as
      // it would have in a cold run.
      resume_hop_ = false;
      sysc::Time next = sysc::Time::us(sim_->now().micros() / 50 * 50);
      while (next < sim_->now()) next += sysc::Time::us(50);
      d = next - sim_->now();
    }
    co_await sim_->delay(d);
    check();
  }
}

void Watchdog::check() {
  if (!enabled_) return;
  if (sim_->now().micros() >= deadline_us_) {
    ++resets_;
    deadline_us_ = sim_->now().micros() + timeout_us_;  // re-arm
    if (on_timeout_) on_timeout_();
  }
}

tlmlite::RegRead Watchdog::read(std::uint64_t off, std::uint32_t) {
  switch (off) {
    case kLoad: return tlmlite::reg_value(timeout_us_);
    case kCtrl: return tlmlite::reg_value(enabled_ ? 1u : 0u);
    case kStatus: return tlmlite::reg_value(resets_);
    case kPet: return {};  // write-only
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response Watchdog::write(std::uint64_t off, std::uint32_t, std::uint32_t value,
                                  std::optional<dift::Tag>) {
  switch (off) {
    case kLoad:
      timeout_us_ = value;
      deadline_us_ = sim_->now().micros() + timeout_us_;
      break;
    case kPet:
      if (value == kPetMagic) deadline_us_ = sim_->now().micros() + timeout_us_;
      break;
    case kCtrl:
      enabled_ = (value & 1) != 0;
      if (enabled_) deadline_us_ = sim_->now().micros() + timeout_us_;
      break;
    case kStatus: break;
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
