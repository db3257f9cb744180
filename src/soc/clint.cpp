#include "soc/clint.hpp"

namespace vpdift::soc {

Clint::Clint(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), cmp_changed_(sim) {
  tsock_.register_registers(*this, sysc::Time::ns(20));
}

void Clint::update_timer_irq() {
  if (timer_irq_) timer_irq_(mtime() >= mtimecmp_);
}

sysc::Task Clint::run() {
  if (resume_hop_) {
    // First activation after a snapshot restore: re-join the saved wake
    // chain instead of starting a fresh one.
    resume_hop_ = false;
    if (parked_ && mtime() >= mtimecmp_) {
      co_await cmp_changed_;
      parked_ = false;
      update_timer_irq();
    } else if (!parked_ && next_wake_ > sim_->now()) {
      co_await sim_->delay(next_wake_ - sim_->now());
      update_timer_irq();
    }
    // parked-but-cmp-already-moved-forward means the waking notification was
    // pending (same delta) at capture time: the cold process resumes at the
    // capture instant and starts a fresh slice — exactly what falling into
    // the loop does. A slice ending right now likewise falls through.
  }
  while (true) {
    if (mtime() >= mtimecmp_) {
      update_timer_irq();
      // Wait for SW to move mtimecmp forward (or clear it).
      parked_ = true;
      co_await cmp_changed_;
      parked_ = false;
      update_timer_irq();
      continue;
    }
    // Sleep until the compare point, in bounded slices: a cmp rewrite while
    // we sleep cannot wake us (the notification has no waiter then), so the
    // slice bounds the interrupt latency for a cmp that moved *earlier*.
    const std::uint64_t delta_us = mtimecmp_ - mtime();
    const std::uint64_t slice = delta_us > 100 ? 100 : delta_us;
    next_wake_ = sim_->now() + sysc::Time::us(slice);
    co_await sim_->delay(sysc::Time::us(slice));
    update_timer_irq();
  }
}

tlmlite::RegRead Clint::read(std::uint64_t off, std::uint32_t size) {
  // The bytes of register `v` from `off` on (the initiator keeps `size`).
  const auto bytes = [off](std::uint64_t v, std::uint64_t base) {
    tlmlite::RegRead r;
    r.value = static_cast<std::uint32_t>(v >> (8 * (off - base)));
    return r;
  };
  if (in_reg(off, size, kMtime, 8)) return bytes(mtime(), kMtime);
  if (in_reg(off, size, kMtimecmp, 8)) return bytes(mtimecmp_, kMtimecmp);
  if (in_reg(off, size, kMsip, 4)) return bytes(msip_, kMsip);
  return tlmlite::reg_error();
}

tlmlite::Response Clint::write(std::uint64_t off, std::uint32_t size,
                               std::uint32_t value, std::optional<dift::Tag>) {
  if (in_reg(off, size, kMtime, 8)) return tlmlite::Response::kOk;  // read-only
  if (in_reg(off, size, kMtimecmp, 8)) {
    for (std::uint32_t i = 0; i < size; ++i) {
      const std::uint64_t byte_index = off - kMtimecmp + i;
      mtimecmp_ &= ~(0xffull << (8 * byte_index));
      mtimecmp_ |= std::uint64_t((value >> (8 * i)) & 0xffu) << (8 * byte_index);
    }
    update_timer_irq();
    cmp_changed_.notify();
    return tlmlite::Response::kOk;
  }
  if (in_reg(off, size, kMsip, 4)) {
    msip_ = value & 1;
    if (soft_irq_) soft_irq_(msip_ != 0);
    return tlmlite::Response::kOk;
  }
  return tlmlite::Response::kAddressError;
}

}  // namespace vpdift::soc
