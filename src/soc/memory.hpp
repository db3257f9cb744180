// Main RAM with an optional per-byte tag plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dift/shadow.hpp"
#include "dift/tag.hpp"
#include "rvasm/program.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

/// Sparse copy of a byte plane (RAM or its tag plane): only the 4 KiB pages
/// that are not all zero are held. Zero is both the reset value of RAM and
/// kBottomTag, so an absent page reads as zero data or as ⊥ tags. A
/// mid-run snapshot of the bundled firmware holds a handful of RAM pages
/// and usually no tag page at all.
class SparsePlane {
 public:
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageBytes = std::size_t(1) << kPageShift;

  SparsePlane() = default;
  /// An all-zero plane of `plane_size` bytes (holds no page).
  explicit SparsePlane(std::size_t plane_size) : plane_size_(plane_size) {}

  /// Size of the plane this copy stands for.
  std::size_t plane_size() const { return plane_size_; }
  /// Bytes held (whole pages).
  std::size_t size() const { return bytes_.size(); }
  /// True iff no page is held: the plane is all zero.
  bool empty() const { return pages_.empty(); }

  /// Byte at plane offset `off` (0 on a page not held). Throws
  /// std::out_of_range past plane_size().
  std::uint8_t at(std::size_t off) const;

  /// Appends page `page` (ascending order) copied from `src`, which holds
  /// the page's bytes up to the end of the plane.
  void add_page(std::size_t page, const std::uint8_t* src);

  /// Held page numbers, ascending; held_page(i) is page pages()[i].
  const std::vector<std::size_t>& pages() const { return pages_; }
  const std::uint8_t* held_page(std::size_t i) const {
    return bytes_.data() + i * kPageBytes;
  }

 private:
  std::size_t plane_size_ = 0;
  std::vector<std::size_t> pages_;
  std::vector<std::uint8_t> bytes_;
};

/// Byte-addressable RAM. In the DIFT build every byte carries a dift::Tag in
/// a parallel plane; the plain VP allocates no tag storage at all. Each
/// plane is an anonymous mapping of its own, zero-filled by the kernel and
/// followed by a guard page, so RAM that a run never touches costs neither
/// a memset, nor a summary scan, nor resident memory.
///
/// A written-page set (one byte per 4 KiB page) keeps the invariant that an
/// unmarked RAM page is all zero. Every writer marks the pages it writes:
/// bus/DMA transport, load_image(), write_u32(), flip_bits(), restore(),
/// and the core's DMI stores through written_pages(). Snapshot, restore and
/// reset then visit only marked pages, never scanning the rest of RAM.
///
/// Beside it, a code-line set (one byte per 64-byte line, its own anonymous
/// mapping) names the lines a DMI initiator has translated into code, and a
/// write epoch counts the writes that may have changed them. Every writer
/// bumps the epoch when it writes a marked line: the writers above through
/// mark_written(), restore() and clear() always, data() on every call, and
/// the core's DMI stores itself. A translated block that recorded the
/// current epoch therefore still matches its bytes, and only a block whose
/// epoch is stale needs a byte compare on entry.
class Memory : public sysc::Module {
 public:
  /// Line granularity of the code-line set: byte `off >> kCodeLineShift`.
  static constexpr std::size_t kCodeLineShift = 6;

  Memory(sysc::Simulation& sim, std::string name, std::size_t size, bool track_tags);

  tlmlite::TargetSocket& socket() { return tsock_; }

  /// Raw RAM for tests and host-side tooling. Conservative: the caller may
  /// write anywhere, so every page is marked written and the code-write
  /// epoch moves. The marks hold for writes made before the next run of a
  /// core on this RAM: a caller that keeps the pointer across a run must
  /// call data() again before writing through it.
  std::uint8_t* data() {
    std::fill(written_.begin(), written_.end(), std::uint8_t{1});
    ++code_epoch_;
    return data_.get();
  }
  /// RAM for a DMI initiator that marks its own stores in written_pages()
  /// and bumps code_epoch() when it writes a line marked in code_lines().
  std::uint8_t* dmi_data() { return data_.get(); }
  /// The code-line set: byte `off >> kCodeLineShift` is non-zero while RAM
  /// offset `off` may hold translated code. Its DMI initiator marks and
  /// clears lines; the memory only reads them.
  std::uint8_t* code_lines() { return code_lines_.get(); }
  /// The code-write epoch; it moves whenever a marked line may have been
  /// written.
  std::uint64_t* code_epoch() { return &code_epoch_; }
  /// The written-page set: byte `off >> SparsePlane::kPageShift` is non-zero
  /// once RAM offset `off` may have been written.
  std::uint8_t* written_pages() { return written_.data(); }
  /// True iff page `page` is marked written (an unmarked page is all zero).
  bool page_written(std::size_t page) const { return written_.at(page) != 0; }
  /// Number of 4 KiB pages (the last may be short).
  std::size_t page_count() const { return written_.size(); }
  dift::Tag* tags() { return tags_.get(); }
  std::size_t size() const { return size_; }
  bool tracks_tags() const { return tags_ != nullptr; }

  /// Copies all program segments into RAM. Segment addresses are absolute
  /// bus addresses; `ram_base` is this memory's mapping base.
  void load_image(const rvasm::Program& program, std::uint64_t ram_base);

  /// Tags [offset, offset+length) (no-op when tags are not tracked).
  void classify(std::size_t offset, std::size_t length, dift::Tag tag);
  /// Tag at `offset` (kBottomTag when untracked).
  dift::Tag tag_at(std::size_t offset) const;

  /// Direct read/write helpers for tests and host-side tooling.
  std::uint32_t read_u32(std::size_t offset) const;
  void write_u32(std::size_t offset, std::uint32_t value);
  /// XORs `bits` into the byte at `offset` (a RAM bit-flip fault).
  void flip_bits(std::size_t offset, std::uint8_t bits);

  /// Taint map statistics: bytes per security class (policy debugging aid).
  /// Empty when tags are not tracked.
  std::map<dift::Tag, std::size_t> tag_histogram() const;

  /// RAM pages that are not all zero; only marked pages are compared.
  SparsePlane save_data() const;
  /// Tag pages holding a block the summary does not call uniformly ⊥; the
  /// tag plane itself is never scanned. Untracked: an empty, sizeless plane.
  SparsePlane save_tags() const;
  /// Makes RAM equal `data` and the tag plane equal `tags` (an empty `tags`
  /// means all ⊥; ignored when untracked). Writes the held pages and zeroes
  /// only the other pages that are marked written, or whose summary is
  /// live; the summary is rescanned over the pages written. Afterwards the
  /// written-page set is exactly `data`'s held pages. Throws
  /// std::invalid_argument, before changing anything, when a plane's size
  /// differs from this memory's.
  void restore(const SparsePlane& data, const SparsePlane& tags);
  /// Zero data and ⊥ tags, at the cost of restore() from empty planes:
  /// afterwards no page is marked written.
  void clear() { restore(SparsePlane(size_), SparsePlane()); }

  /// Block-summary layer over the tag plane (unattached when untracked).
  dift::ShadowSummary& shadow() { return shadow_; }
  const dift::ShadowSummary& shadow() const { return shadow_; }
  /// Call after writing the tag plane directly.
  void rebuild_summary() { shadow_.rebuild(); }
  /// Reads served from a uniform block without touching the tag plane.
  std::uint64_t summary_hits() const { return summary_hits_; }

 private:
  /// Owner of one plane's mapping (plane plus guard page).
  struct Unmap {
    std::size_t bytes;
    void operator()(void* p) const;
  };
  template <typename T>
  using Plane = std::unique_ptr<T[], Unmap>;
  template <typename T>
  static Plane<T> zero_filled(std::size_t n);

  void transport(tlmlite::Payload& p, sysc::Time& delay);
  /// Marks the pages of [offset, offset+length) written (length > 0) and
  /// bumps the code-write epoch if the range meets a marked code line.
  void mark_written(std::size_t offset, std::size_t length);
  /// Bytes of page `page` (the last page may be short).
  std::size_t page_len(std::size_t page) const;
  bool tag_page_live(std::size_t page) const;

  tlmlite::TargetSocket tsock_;
  std::size_t size_;
  Plane<std::uint8_t> data_;
  Plane<dift::Tag> tags_;
  std::vector<std::uint8_t> written_;  ///< one byte per page, 0 = all zero
  Plane<std::uint8_t> code_lines_;     ///< one byte per 64-byte line
  std::uint64_t code_epoch_ = 0;
  dift::ShadowSummary shadow_;
  std::uint64_t summary_hits_ = 0;
};

}  // namespace vpdift::soc
