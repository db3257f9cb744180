// Register-level target interface: the CPU's MMIO path.
//
// A CPU load or store moves at most four bytes and one tag. Register devices
// (UART, CAN, sensor, AES, DMA, CLINT, PLIC, GPIO, watchdog, system
// controller) therefore expose one register-level entry, read(off, size) and
// write(off, size, value, tag), whose value and tag travel in registers. The
// Bus calls it directly for the CPU (Bus::read/Bus::write); payload
// transactions — DMA bursts, host-side pokes, payload-level tests — reach
// the same entry through the payload shim serve(). Each device thus decodes
// its registers once, for both kinds of initiator.
#pragma once

#include <cstdint>
#include <optional>

#include "dift/tag.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::tlmlite {

/// Result of a register-level read.
struct RegRead {
  std::uint32_t value = 0;  ///< the read bytes, byte lane i in bits [8i, 8i+8)
  std::uint32_t tags = 0;   ///< one tag per byte lane, packed like `value`
  /// Shadow-summary hint, as Payload::tag_summary: the device vouches that
  /// every lane carries tag(0). Initiators take that tag without a per-lane
  /// LUB (the tainted core counts a load_summary_hits hit).
  bool uniform = false;
  Response response = Response::kOk;

  bool ok() const { return response == Response::kOk; }
  dift::Tag tag(std::uint32_t lane = 0) const {
    return static_cast<dift::Tag>(tags >> (8 * lane));
  }
};

/// Read result of a 32-bit register holding `v`, every byte tagged `tag`.
/// Bytes beyond the access size are dropped by the initiator.
inline RegRead reg_value(std::uint32_t v, dift::Tag tag = dift::kBottomTag) {
  return {v, tag * 0x01010101u, true, Response::kOk};
}

/// Read result of a failed access.
inline RegRead reg_error(Response r = Response::kAddressError) {
  return {0, 0, false, r};
}

/// A device's register-level entry. The bus hands it offsets relative to the
/// mapping base.
class RegisterTarget {
 public:
  /// Reads `size` bytes at `off`: 1, 2 or 4 from the CPU; the payload shim
  /// passes its length for an oversized access of one register (its bytes
  /// beyond four read as zero). A read of a register that returns no data
  /// (write-only, reads ignored) is RegRead{}: zero, ⊥ lanes, not uniform.
  virtual RegRead read(std::uint64_t off, std::uint32_t size) = 0;

  /// Writes the low min(size, 4) bytes of `value` (bits above are zero), all
  /// of them carrying `tag`; `tag` is disengaged when the initiator tracks
  /// no taint (a Payload without a tag plane). `size` is as for read().
  virtual Response write(std::uint64_t off, std::uint32_t size,
                         std::uint32_t value, std::optional<dift::Tag> tag) = 0;

  /// True iff [off, off+size) lies inside one byte-array window (a frame or
  /// buffer whose bytes carry their own tags, or a 64-bit register). The
  /// payload shim serves such an access in pieces of at most four bytes, and
  /// a write one byte lane at a time where its lanes' tags differ; any other
  /// access goes to one register in one call.
  virtual bool byte_window(std::uint64_t off, std::uint32_t size) const {
    (void)off;
    (void)size;
    return false;
  }

  /// Bus address of offset `off`: the base of the bus mapping plus `off`
  /// (just `off` while unmapped). Peripheral clearance violations report it.
  std::uint64_t bus_address(std::uint64_t off) const { return base_ + off; }

 protected:
  ~RegisterTarget() = default;

 private:
  friend class Bus;
  std::uint64_t base_ = 0;
};

/// Payload shim: serves `p` (address relative to the target) through the
/// register entry of `t`. A byte-window access goes in pieces (see
/// RegisterTarget::byte_window); any other one is one register access of
/// p.length bytes whose write tag is the LUB of the payload's tag lanes.
/// Reads fill p.length bytes and tags; a uniform register read sets
/// p.tag_summary.
void serve(RegisterTarget& t, Payload& p);

}  // namespace vpdift::tlmlite
