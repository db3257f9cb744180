#include "soc/dma.hpp"

#include <algorithm>

namespace vpdift::soc {

Dma::Dma(sysc::Simulation& sim, std::string name, bool tainted_mode)
    : Module(sim, std::move(name)),
      start_event_(sim),
      tainted_mode_(tainted_mode) {
  tsock_.register_registers(*this, sysc::Time::ns(50));
}

sysc::Task Dma::run() {
  if (resume_hop_ && busy_) {
    // Restored mid-transfer: the cold process is asleep in the pacing delay
    // of the burst it just issued; wait out the remainder, then continue
    // the copy from the saved cursors.
    resume_hop_ = false;
    if (next_burst_due_ > sim_->now())
      co_await sim_->delay(next_burst_due_ - sim_->now());
  } else {
    resume_hop_ = false;
  }
  while (true) {
    // A start command may have arrived before this thread first ran (the
    // notification would then be lost); the busy flag covers that window.
    while (!busy_) co_await start_event_;
    while (remaining_ > 0) {
      burst();
      next_burst_due_ = sim_->now() + sysc::Time::ns(100);
      co_await sim_->delay(sysc::Time::ns(100));  // burst pacing
    }
    busy_ = false;
    done_ = true;
    ++transfers_;
    if (irq_) irq_();
  }
}

void Dma::burst() {
  const std::uint32_t n = std::min(remaining_, kBurstBytes);
  std::uint8_t buf[kBurstBytes];
  dift::Tag tbuf[kBurstBytes];
  sysc::Time delay;

  tlmlite::Payload rd;
  rd.command = tlmlite::Command::kRead;
  rd.address = cur_src_;
  rd.data = buf;
  rd.tags = tainted_mode_ ? tbuf : nullptr;
  rd.length = n;
  isock_.b_transport(rd, delay);

  tlmlite::Payload wr;
  wr.command = tlmlite::Command::kWrite;
  wr.address = cur_dst_;
  wr.data = buf;
  wr.tags = tainted_mode_ ? tbuf : nullptr;
  wr.length = n;
  // Forward the source's uniform-tag summary so the destination can
  // update its block summaries without rescanning the burst.
  if (tainted_mode_ && rd.ok() && rd.tags_uniform()) {
    wr.tag_summary = rd.tag_summary;
    ++summary_hits_;
  }
  isock_.b_transport(wr, delay);

  cur_src_ += n;
  cur_dst_ += n;
  remaining_ -= n;
}

tlmlite::RegRead Dma::read(std::uint64_t off, std::uint32_t) {
  switch (off) {
    case kSrc: return tlmlite::reg_value(src_);
    case kDst: return tlmlite::reg_value(dst_);
    case kLen: return tlmlite::reg_value(len_);
    case kCtrl: return tlmlite::reg_value(0);  // write-only register reads as zero
    case kStatus: return tlmlite::reg_value((busy_ ? 1u : 0u) | (done_ ? 2u : 0u));
    default: return tlmlite::reg_error();
  }
}

tlmlite::Response Dma::write(std::uint64_t off, std::uint32_t, std::uint32_t value,
                             std::optional<dift::Tag>) {
  switch (off) {
    case kSrc: src_ = value; break;
    case kDst: dst_ = value; break;
    case kLen: len_ = value; break;
    case kCtrl:
      if ((value & 0xffu) == 1 && !busy_) {
        busy_ = true;
        done_ = false;
        cur_src_ = src_;
        cur_dst_ = dst_;
        remaining_ = len_;
        start_event_.notify();
      }
      break;
    case kStatus: break;  // read-only
    default: return tlmlite::Response::kAddressError;
  }
  return tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
