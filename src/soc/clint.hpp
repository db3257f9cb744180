// Core-local interruptor (CLINT): machine timer and software interrupts.
//
// mtime advances with simulated time (1 tick = 1 microsecond); a kernel
// thread asserts MTIP exactly when mtime reaches mtimecmp.
//
// Register map (as in riscv-vp / SiFive CLINT):
//   0x0000 MSIP      (rw) bit0: software interrupt
//   0x4000 MTIMECMP  (rw) 64-bit
//   0xbff8 MTIME     (r)  64-bit
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Clint : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kMsip = 0x0000, kMtimecmp = 0x4000,
                                 kMtime = 0xbff8;

  Clint(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget). MTIMECMP and MTIME are 64-bit
  // registers reached a byte lane at a time (byte windows); MSIP takes any
  // access inside its 4 bytes.
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;
  bool byte_window(std::uint64_t off, std::uint32_t size) const override {
    return in_reg(off, size, kMtime, 8) || in_reg(off, size, kMtimecmp, 8);
  }

  /// Timer interrupt line (level) into the core.
  void set_timer_irq(std::function<void(bool)> fn) { timer_irq_ = std::move(fn); }
  /// Software interrupt line (level) into the core.
  void set_soft_irq(std::function<void(bool)> fn) { soft_irq_ = std::move(fn); }

  /// Current mtime in ticks (1 tick = 1 us of simulated time).
  std::uint64_t mtime() const { return sim_->now().micros(); }
  std::uint64_t mtimecmp() const { return mtimecmp_; }

  void start() { sim_->spawn(run()); }

  /// Snapshotable device state. The timer process's phase is pinned by
  /// `parked` (awaiting a compare rewrite) and `next_wake` (absolute end of
  /// the current polling slice), so a restored process re-joins the exact
  /// wake chain a cold run would execute. Does NOT re-derive the interrupt
  /// lines on load: the restored CSR mip is authoritative.
  struct State {
    std::uint64_t mtimecmp = ~0ull;
    std::uint32_t msip = 0;
    bool parked = false;
    sysc::Time next_wake;
  };
  State save_state() const { return {mtimecmp_, msip_, parked_, next_wake_}; }
  void load_state(const State& s) {
    mtimecmp_ = s.mtimecmp;
    msip_ = s.msip;
    parked_ = s.parked;
    next_wake_ = s.next_wake;
    resume_hop_ = true;
  }

 private:
  sysc::Task run();
  /// [off, off+size) lies in the `width`-byte register at `base`.
  static bool in_reg(std::uint64_t off, std::uint32_t size, std::uint64_t base,
                     std::uint64_t width) {
    return off >= base && off + size <= base + width;
  }
  void update_timer_irq();

  tlmlite::TargetSocket tsock_;
  sysc::Event cmp_changed_;
  std::uint64_t mtimecmp_ = ~0ull;
  std::uint32_t msip_ = 0;
  bool parked_ = false;
  sysc::Time next_wake_;
  bool resume_hop_ = false;
  std::function<void(bool)> timer_irq_;
  std::function<void(bool)> soft_irq_;
};

}  // namespace vpdift::soc
