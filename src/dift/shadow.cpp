#include "dift/shadow.hpp"

namespace vpdift::dift {

void ShadowSummary::attach(Tag* tags, std::size_t size, bool known_bottom) {
  tags_ = tags;
  size_ = tags ? size : 0;
  blocks_.assign(tags ? (size_ + kBlockBytes - 1) >> kBlockShift : 0, 0);
  live_blocks_ = 0;
  if (tags_ && !known_bottom) rebuild();
}

std::uint16_t ShadowSummary::rescan_block(std::size_t block) {
  const std::size_t base = block << kBlockShift;
  const std::size_t bend = std::min(base + kBlockBytes, size_);
  const Tag first = tags_[base];
  std::uint16_t summary = first;
  for (std::size_t i = base + 1; i < bend; ++i) {
    if (tags_[i] != first) {
      summary = kMixed;
      break;
    }
  }
  set_block(block, summary);
  return summary;
}

void ShadowSummary::rebuild() {
  for (std::size_t b = 0; b < blocks_.size(); ++b) rescan_block(b);
}

void ShadowSummary::on_store_bytes(std::size_t off, std::size_t len) {
  if (!tags_ || len == 0) return;
  const std::size_t b0 = off >> kBlockShift;
  const std::size_t b1 = (off + len - 1) >> kBlockShift;
  for (std::size_t b = b0; b <= b1; ++b) {
    const std::size_t base = b << kBlockShift;
    const std::size_t bend = std::min(base + kBlockBytes, size_);
    const std::size_t s = std::max(off, base);
    const std::size_t e = std::min(off + len, bend);
    const Tag first = tags_[s];
    bool run_uniform = true;
    for (std::size_t i = s + 1; i < e; ++i) {
      if (tags_[i] != first) {
        run_uniform = false;
        break;
      }
    }
    if (!run_uniform) {
      set_block(b, kMixed);
    } else if (s == base && e == bend) {
      set_block(b, first);  // whole block overwritten uniformly
    } else if (blocks_[b] != first) {
      set_block(b, kMixed);  // partial run with a tag differing from summary
    }
  }
}

}  // namespace vpdift::dift
