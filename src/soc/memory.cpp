#include "soc/memory.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

#include "tlmlite/payload.hpp"

namespace vpdift::soc {

namespace {

constexpr std::size_t kPageBytes = SparsePlane::kPageBytes;
constexpr std::size_t kPageShift = SparsePlane::kPageShift;

bool all_zero(const std::uint8_t* p, std::size_t len) {
  alignas(64) static const std::uint8_t kZeroPage[kPageBytes] = {};
  return std::memcmp(p, kZeroPage, len) == 0;
}

/// Writes `src`'s held pages over `plane` and zeroes every other page for
/// which `dirty(page)` holds; `wrote(off, len, copied)` follows each write.
template <typename Dirty, typename Wrote>
void restore_pages(std::uint8_t* plane, std::size_t size, const SparsePlane& src,
                   Dirty dirty, Wrote wrote) {
  const std::vector<std::size_t>& held = src.pages();
  std::size_t next = 0;
  for (std::size_t p = 0, off = 0; off < size; ++p, off += kPageBytes) {
    const std::size_t len = std::min(kPageBytes, size - off);
    if (next < held.size() && held[next] == p) {
      std::memcpy(plane + off, src.held_page(next++), len);
      wrote(off, len, true);
    } else if (dirty(p)) {
      std::memset(plane + off, 0, len);
      wrote(off, len, false);
    }
  }
}

}  // namespace

std::uint8_t SparsePlane::at(std::size_t off) const {
  if (off >= plane_size_) throw std::out_of_range("SparsePlane::at");
  const std::size_t page = off >> kPageShift;
  const auto it = std::lower_bound(pages_.begin(), pages_.end(), page);
  if (it == pages_.end() || *it != page) return 0;
  return held_page(static_cast<std::size_t>(it - pages_.begin()))
      [off & (kPageBytes - 1)];
}

void SparsePlane::add_page(std::size_t page, const std::uint8_t* src) {
  const std::size_t len = std::min(kPageBytes, plane_size_ - (page << kPageShift));
  pages_.push_back(page);
  bytes_.resize(bytes_.size() + kPageBytes);  // a short last page pads with 0
  std::memcpy(bytes_.data() + bytes_.size() - kPageBytes, src, len);
}

/// A zero-filled plane of `n` elements in an anonymous mapping of its own,
/// followed by one PROT_NONE guard page, so an overrun past the plane's last
/// page faults. The kernel backs a page only when a run first writes it,
/// whatever state malloc is in: calloc serves a large plane from the heap,
/// clearing reused memory, once malloc's dynamic mmap threshold has grown
/// past the plane size, which the first free of a plane does.
template <typename T>
Memory::Plane<T> Memory::zero_filled(std::size_t n) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t len = (n * sizeof(T) + page - 1) / page * page;
  void* p = ::mmap(nullptr, len + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (::mprotect(static_cast<std::uint8_t*>(p) + len, page, PROT_NONE) != 0) {
    ::munmap(p, len + page);
    throw std::bad_alloc();
  }
  return Plane<T>(static_cast<T*>(p), Unmap{len + page});
}

void Memory::Unmap::operator()(void* p) const { ::munmap(p, bytes); }

Memory::Memory(sysc::Simulation& sim, std::string name, std::size_t size,
               bool track_tags)
    : Module(sim, std::move(name)),
      size_(size),
      data_(zero_filled<std::uint8_t>(size)),
      written_((size + kPageBytes - 1) >> kPageShift, 0),
      code_lines_(zero_filled<std::uint8_t>(
          (size + (std::size_t(1) << kCodeLineShift) - 1) >> kCodeLineShift)) {
  if (track_tags) {
    tags_ = zero_filled<dift::Tag>(size);
    shadow_.attach(tags_.get(), size_, /*known_bottom=*/true);
  }
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
}

void Memory::load_image(const rvasm::Program& program, std::uint64_t ram_base) {
  for (const auto& seg : program.segments) {
    if (seg.bytes.empty()) continue;
    if (seg.base < ram_base || seg.end() > ram_base + size_)
      throw std::out_of_range(name_ + ": program segment outside RAM");
    std::memcpy(data_.get() + (seg.base - ram_base), seg.bytes.data(),
                seg.bytes.size());
    mark_written(seg.base - ram_base, seg.bytes.size());
  }
}

void Memory::classify(std::size_t offset, std::size_t length, dift::Tag tag) {
  if (!tags_) return;
  if (offset + length > size_)
    throw std::out_of_range(name_ + ": classify out of range");
  std::memset(tags_.get() + offset, tag, length);
  shadow_.on_classify(offset, length, tag);
}

dift::Tag Memory::tag_at(std::size_t offset) const {
  if (!tags_) return dift::kBottomTag;
  if (offset >= size_) throw std::out_of_range(name_ + ": tag_at out of range");
  return tags_[offset];
}

std::uint32_t Memory::read_u32(std::size_t offset) const {
  std::uint32_t v;
  std::memcpy(&v, data_.get() + offset, 4);
  return v;
}

void Memory::write_u32(std::size_t offset, std::uint32_t value) {
  std::memcpy(data_.get() + offset, &value, 4);
  mark_written(offset, 4);
}

void Memory::flip_bits(std::size_t offset, std::uint8_t bits) {
  data_[offset] ^= bits;
  mark_written(offset, 1);
}

void Memory::mark_written(std::size_t offset, std::size_t length) {
  const std::size_t last = (offset + length - 1) >> kPageShift;
  for (std::size_t p = offset >> kPageShift; p <= last; ++p) written_[p] = 1;
  const std::size_t last_line = (offset + length - 1) >> kCodeLineShift;
  for (std::size_t l = offset >> kCodeLineShift; l <= last_line; ++l)
    if (code_lines_[l]) {
      ++code_epoch_;
      return;
    }
}

std::map<dift::Tag, std::size_t> Memory::tag_histogram() const {
  std::map<dift::Tag, std::size_t> h;
  if (tags_)
    for (std::size_t i = 0; i < size_; ++i) ++h[tags_[i]];
  return h;
}

std::size_t Memory::page_len(std::size_t page) const {
  return std::min(kPageBytes, size_ - (page << kPageShift));
}

bool Memory::tag_page_live(std::size_t page) const {
  if (shadow_.all_bottom()) return false;
  constexpr std::size_t kBlocksPerPage = kPageBytes / dift::ShadowSummary::kBlockBytes;
  const std::size_t b0 = page * kBlocksPerPage;
  const std::size_t b1 = std::min(b0 + kBlocksPerPage, shadow_.block_count());
  for (std::size_t b = b0; b < b1; ++b)
    if (shadow_.block_summary(b) != dift::kBottomTag) return true;
  return false;
}

SparsePlane Memory::save_data() const {
  SparsePlane s(size_);
  for (std::size_t p = 0, off = 0; off < size_; ++p, off += kPageBytes)
    if (written_[p] && !all_zero(data_.get() + off, page_len(p)))
      s.add_page(p, data_.get() + off);
  return s;
}

SparsePlane Memory::save_tags() const {
  if (!tags_) return {};
  SparsePlane s(size_);
  for (std::size_t p = 0, off = 0; off < size_; ++p, off += kPageBytes)
    if (tag_page_live(p)) s.add_page(p, tags_.get() + off);
  return s;
}

void Memory::restore(const SparsePlane& data, const SparsePlane& tags) {
  if (data.plane_size() != size_ || (!tags.empty() && tags.plane_size() != size_))
    throw std::invalid_argument(name_ + ": snapshot RAM size mismatch");
  // Any page may change, translated code included.
  ++code_epoch_;
  // An unmarked page is all zero, so only marked pages need zeroing; the
  // set ends up holding exactly the pages copied.
  restore_pages(
      data_.get(), size_, data, [&](std::size_t p) { return written_[p] != 0; },
      [&](std::size_t off, std::size_t, bool copied) {
        written_[off >> kPageShift] = copied;
      });
  if (!tags_) return;
  // The summary is exact wherever it says ⊥, so only pages holding a live
  // block can differ from zero; rescanning the copied pages and marking the
  // zeroed ones ⊥ leaves every block summary coherent.
  restore_pages(
      tags_.get(), size_, tags, [&](std::size_t p) { return tag_page_live(p); },
      [&](std::size_t off, std::size_t len, bool copied) {
        if (copied)
          shadow_.on_store_bytes(off, len);
        else
          shadow_.on_store(off, len, dift::kBottomTag);
      });
}

void Memory::transport(tlmlite::Payload& p, sysc::Time& delay) {
  if (p.address + p.length > size_) {
    p.response = tlmlite::Response::kAddressError;
    return;
  }
  const std::size_t off = p.address;
  if (p.is_read()) {
    std::memcpy(p.data, data_.get() + off, p.length);
    if (p.tainted()) {
      dift::Tag t = dift::kBottomTag;
      if (!tags_) {
        std::memset(p.tags, dift::kBottomTag, p.length);
        p.set_tag_summary(dift::kBottomTag);
      } else if (shadow_.uniform(off, p.length, &t)) {
        std::memset(p.tags, t, p.length);
        p.set_tag_summary(t);
        ++summary_hits_;
      } else {
        std::memcpy(p.tags, tags_.get() + off, p.length);
      }
    }
  } else {
    std::memcpy(data_.get() + off, p.data, p.length);
    if (p.length != 0) mark_written(off, p.length);
    if (p.tainted() && tags_) {
      std::memcpy(tags_.get() + off, p.tags, p.length);
      if (p.tags_uniform())
        shadow_.on_store(off, p.length, static_cast<dift::Tag>(p.tag_summary));
      else
        shadow_.on_store_bytes(off, p.length);
    }
  }
  delay += sysc::Time::ns(10);
  p.response = tlmlite::Response::kOk;
}

}  // namespace vpdift::soc
