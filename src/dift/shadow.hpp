// Shadow-tag summary layer.
//
// Per-byte tag planes make every load/fetch pay a per-byte LUB loop, yet in
// all of the paper's Table II workloads the overwhelming majority of memory
// is uniformly unclassified (kBottomTag) — and classified regions (a PIN, a
// key schedule) are themselves uniform within a block. Low-overhead DIFT
// designs exploit exactly this by coarsening the shadow granularity when
// tags are homogeneous (PAGURUS; hardware-assisted ARM DIFT). ShadowSummary
// partitions a tag plane into fixed 64-byte blocks, each carrying a 16-bit
// summary: the block's single tag when every byte agrees, or kMixed. Readers
// (the core's DMI load/fetch paths, Memory::transport, the DMA burst loop)
// consult the summary first and skip the per-byte loop on uniform blocks;
// writers keep the summary coherent on every tag-plane store.
//
// Coherence contract: every write to the attached tag plane MUST be followed
// by on_store()/on_store_bytes() over the written range — a snapshot restore
// does this per page it writes (soc::Memory::restore), and rebuild() rescans
// a plane written wholesale. The summary is conservative — kMixed is always
// safe — but a uniform summary must never disagree with the plane.
//
// The core's block engine asks uniform() once per tainted block dispatch:
// a uniformly tagged span whose tag is cleared for fetch runs without
// per-instruction fetch checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dift/tag.hpp"

namespace vpdift::dift {

class ShadowSummary {
 public:
  static constexpr std::size_t kBlockShift = 6;  ///< 64-byte blocks
  static constexpr std::size_t kBlockBytes = std::size_t(1) << kBlockShift;
  /// Block summary sentinel: bytes of the block carry differing tags.
  static constexpr std::uint16_t kMixed = 0x8000;

  ShadowSummary() = default;

  /// Attaches to (and scans) a tag plane. Pass nullptr to detach.
  /// `known_bottom`: the caller guarantees the plane is uniformly kBottomTag
  /// (e.g. fresh from calloc), so the scan is skipped.
  void attach(Tag* tags, std::size_t size, bool known_bottom = false);
  bool attached() const { return tags_ != nullptr; }

  std::size_t block_count() const { return blocks_.size(); }
  std::uint16_t block_summary(std::size_t block) const { return blocks_[block]; }

  /// Number of blocks whose summary is not uniformly kBottomTag (kMixed
  /// counts: a mixed block necessarily holds a non-bottom byte). Maintained
  /// incrementally by set_block, so all_bottom() is an O(1) exact answer —
  /// the core's taint-liveness gate dispatches block variants on it.
  std::size_t live_blocks() const { return live_blocks_; }
  /// True iff the whole attached plane is uniformly kBottomTag.
  bool all_bottom() const { return live_blocks_ == 0; }

  /// True iff every byte of [off, off+len) lies in blocks summarised as one
  /// identical tag; that tag is written to *out. O(1) per touched block —
  /// the caller skips its per-byte LUB loop on success. Bounds are the
  /// caller's responsibility (off+len <= attached size, len >= 1).
  bool uniform(std::size_t off, std::size_t len, Tag* out) const {
    if (len == 0) return false;
    const std::size_t b0 = off >> kBlockShift;
    const std::uint16_t s = blocks_[b0];
    if (s == kMixed) return false;
    const std::size_t b1 = (off + len - 1) >> kBlockShift;
    for (std::size_t b = b0 + 1; b <= b1; ++b)
      if (blocks_[b] != s) return false;
    *out = static_cast<Tag>(s);
    return true;
  }

  /// Tag-plane store of `len` bytes, all carrying `tag`, at [off, off+len).
  /// Call after writing the plane. Uniform-into-matching-block (the common
  /// case: unclassified data over unclassified memory) costs one compare per
  /// block; a full-block overwrite re-uniforms a mixed block; a partial
  /// store with a differing tag marks the block mixed.
  void on_store(std::size_t off, std::size_t len, Tag tag) {
    if (!tags_ || len == 0) return;
    const std::size_t b0 = off >> kBlockShift;
    // A partial store into a block that is already mixed leaves it mixed.
    // Partial: the run ends before the block's end, which for a short last
    // block is the end of the plane.
    if (blocks_[b0] == kMixed &&
        (off & (kBlockBytes - 1)) + len < kBlockBytes && off + len < size_)
      return;
    const std::size_t b1 = (off + len - 1) >> kBlockShift;
    for (std::size_t b = b0; b <= b1; ++b) {
      if (blocks_[b] == tag) continue;
      const std::size_t base = b << kBlockShift;
      const std::size_t bend = std::min(base + kBlockBytes, size_);
      if (off <= base && off + len >= bend)
        set_block(b, tag);  // full overwrite: re-uniform
      else
        set_block(b, kMixed);
    }
  }

  /// Classification is a uniform fill of the plane.
  void on_classify(std::size_t off, std::size_t len, Tag tag) {
    on_store(off, len, tag);
  }

  /// Tag-plane store whose bytes may carry differing tags (already written
  /// to the plane at [off, off+len)). Scans only the written run per block.
  void on_store_bytes(std::size_t off, std::size_t len);

  /// Rescans the whole plane (after a caller wrote it wholesale).
  void rebuild();

  /// Rescans one block; returns its new summary. Used by rebuild() and by
  /// tests asserting the summary/plane coherence invariant.
  std::uint16_t rescan_block(std::size_t block);

 private:
  void set_block(std::size_t b, std::uint16_t s) {
    const std::uint16_t old = blocks_[b];
    if (old != s) {
      live_blocks_ += std::size_t(s != 0) - std::size_t(old != 0);
      blocks_[b] = s;
    }
  }

  Tag* tags_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint16_t> blocks_;
  std::size_t live_blocks_ = 0;
};

}  // namespace vpdift::dift
