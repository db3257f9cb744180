// DMA controller: tag-preserving memory-to-memory copies behind the CPU's
// back — the classic fine-grained HW/SW interaction a source-level DIFT
// misses. The copy runs in a kernel thread, moving one burst per delta of
// simulated time, and raises an interrupt on completion.
//
// Register map:
//   0x00 SRC   (rw) source bus address
//   0x04 DST   (rw) destination bus address
//   0x08 LEN   (rw) byte count
//   0x0c CTRL  (w)  write 1: start transfer
//   0x10 STATUS(r)  bit0: busy, bit1: done
#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <string>

#include "dift/tag.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class Dma : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kSrc = 0x00, kDst = 0x04, kLen = 0x08,
                                 kCtrl = 0x0c, kStatus = 0x10;
  static constexpr std::uint32_t kBurstBytes = 16;

  Dma(sysc::Simulation& sim, std::string name, bool tainted_mode);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget).
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;
  /// Initiator used for the actual copies (bind to the bus).
  tlmlite::InitiatorSocket& bus_socket() { return isock_; }
  /// Completion interrupt (pulsed).
  void set_irq(std::function<void()> fn) { irq_ = std::move(fn); }

  void start() { sim_->spawn(run()); }

  std::uint64_t transfers_completed() const { return transfers_; }
  /// Bursts whose tags were forwarded as one uniform summary.
  std::uint64_t summary_hits() const { return summary_hits_; }

  /// Snapshotable device state, including an in-flight transfer: cursor
  /// positions, remaining byte count, and the absolute due time of the next
  /// burst, so a restored copy resumes burst-exact.
  struct State {
    std::uint32_t src = 0, dst = 0, len = 0;
    bool busy = false, done = false;
    std::uint64_t transfers = 0;
    std::uint64_t summary_hits = 0;
    std::uint32_t cur_src = 0, cur_dst = 0, remaining = 0;
    sysc::Time next_burst_due;
  };
  State save_state() const {
    return {src_,      dst_,     len_,      busy_,    done_,          transfers_,
            summary_hits_, cur_src_, cur_dst_, remaining_, next_burst_due_};
  }
  void load_state(const State& s) {
    src_ = s.src;
    dst_ = s.dst;
    len_ = s.len;
    busy_ = s.busy;
    done_ = s.done;
    transfers_ = s.transfers;
    summary_hits_ = s.summary_hits;
    cur_src_ = s.cur_src;
    cur_dst_ = s.cur_dst;
    remaining_ = s.remaining;
    next_burst_due_ = s.next_burst_due;
    resume_hop_ = true;
  }

 private:
  sysc::Task run();
  void burst();

  tlmlite::TargetSocket tsock_;
  tlmlite::InitiatorSocket isock_;
  sysc::Event start_event_;
  std::uint32_t src_ = 0, dst_ = 0, len_ = 0;
  bool busy_ = false, done_ = false;
  bool tainted_mode_;
  std::uint64_t transfers_ = 0;
  std::uint64_t summary_hits_ = 0;
  // In-flight transfer progress (members, not locals, so snapshots can
  // capture a copy mid-burst).
  std::uint32_t cur_src_ = 0, cur_dst_ = 0, remaining_ = 0;
  sysc::Time next_burst_due_;
  bool resume_hop_ = false;
  std::function<void()> irq_;
};

}  // namespace vpdift::soc
