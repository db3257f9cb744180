// Address-routed interconnect (the VP's TLM bus).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sysc/kernel.hpp"
#include "tlmlite/registers.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::tlmlite {

/// Routes transactions to target sockets by address range. Transactions are
/// rebased: the target sees an address relative to its mapping base.
///
/// Routing is one table lookup: map() records, for each 16 MiB slot of the
/// 32-bit space, the one range that overlaps it (or none, or several). Only
/// a slot shared by several ranges, and addresses at or above 4 GiB, fall
/// back to a scan of the ranges in map order.
///
/// Two entries share the routing: payload transport (DMA, host-side pokes)
/// and the CPU's register-level read()/write(), which call a register
/// device's entry directly (see registers.hpp) and build a Payload only for
/// a target without one (RAM, flash). Both count one transaction.
class Bus : public sysc::Module {
 public:
  Bus(sysc::Simulation& sim, std::string name);

  /// Maps [base, base+size) to `target`. Ranges must not overlap.
  void map(std::uint64_t base, std::uint64_t size, TargetSocket& target,
           std::string port_name = {});

  /// The socket initiators bind to.
  TargetSocket& target_socket() { return tsock_; }

  /// Direct routing entry point (equivalent to transport through tsock_).
  void transport(Payload& p, sysc::Time& delay);

  /// CPU load of `size` (1, 2 or 4) bytes at bus address `addr`; the value
  /// comes back in the low `size` bytes, with its tag lanes (an initiator
  /// that tracks no taint ignores them). No latency is annotated.
  RegRead read(std::uint64_t addr, std::uint32_t size) {
    ++transactions_;
    const Range* r = route(addr);
    if (r == nullptr || !r->contains(addr + size - 1)) return reg_error();
    if (r->registers == nullptr) return read_payload(*r, addr, size);
    RegRead v = r->registers->read(addr - r->base, size);
    v.value &= ~0u >> (32 - 8 * size);
    return v;
  }

  /// CPU store of the low `size` (1, 2 or 4) bytes of `value`, all carrying
  /// `tag` (disengaged: the initiator tracks no taint).
  Response write(std::uint64_t addr, std::uint32_t size, std::uint32_t value,
                 std::optional<dift::Tag> tag) {
    ++transactions_;
    const Range* r = route(addr);
    if (r == nullptr || !r->contains(addr + size - 1)) return Response::kAddressError;
    value &= ~0u >> (32 - 8 * size);
    if (r->registers == nullptr) return write_payload(*r, addr, size, value, tag);
    return r->registers->write(addr - r->base, size, value, tag);
  }

  /// Number of mapped ranges.
  std::size_t mapping_count() const { return ranges_.size(); }

  /// Resolves the port name covering `address` (diagnostics), or "".
  std::string port_at(std::uint64_t address) const;

  /// Total transactions routed (cumulative; the VP reports per-run deltas).
  std::uint64_t transactions() const { return transactions_; }

 private:
  struct Range {
    std::uint64_t base;
    std::uint64_t size;
    TargetSocket* target;
    RegisterTarget* registers;  ///< target->registers() at map time
    std::string port_name;
    bool contains(std::uint64_t a) const { return a - base < size; }
  };
  const Range* route(std::uint64_t address) const {
    const std::uint64_t s = address >> kSlotShift;
    if (s >= kSlots) return scan(address);
    const std::uint32_t index = slots_[s];
    if (index == kNoRange) return nullptr;
    if (index == kSeveral) return scan(address);
    const Range& r = ranges_[index];
    return r.contains(address) ? &r : nullptr;
  }
  const Range* scan(std::uint64_t address) const;
  /// read()/write() on a target without a register entry.
  RegRead read_payload(const Range& r, std::uint64_t addr, std::uint32_t size);
  Response write_payload(const Range& r, std::uint64_t addr, std::uint32_t size,
                         std::uint32_t value, std::optional<dift::Tag> tag);

  static constexpr unsigned kSlotShift = 24;  ///< 16 MiB slots
  static constexpr std::size_t kSlots = std::size_t{1} << (32 - kSlotShift);
  static constexpr std::uint32_t kNoRange = ~std::uint32_t{0};
  static constexpr std::uint32_t kSeveral = kNoRange - 1;

  TargetSocket tsock_;
  std::vector<Range> ranges_;
  /// Index into ranges_ of the one range overlapping each slot, or
  /// kNoRange / kSeveral.
  std::array<std::uint32_t, kSlots> slots_;
  std::uint64_t transactions_ = 0;
};

}  // namespace vpdift::tlmlite
