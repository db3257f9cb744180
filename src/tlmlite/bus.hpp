// Address-routed interconnect (the VP's TLM bus).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::tlmlite {

/// Routes transactions to target sockets by address range. Transactions are
/// rebased: the target sees an address relative to its mapping base.
///
/// Routing is one table lookup: map() records, for each 16 MiB slot of the
/// 32-bit space, the one range that overlaps it (or none, or several). Only
/// a slot shared by several ranges, and addresses at or above 4 GiB, fall
/// back to a scan of the ranges in map order.
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
    std::string port_name;
    bool contains(std::uint64_t a) const { return a - base < size; }
  };
  const Range* route(std::uint64_t address) const;
  const Range* scan(std::uint64_t address) const;

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
