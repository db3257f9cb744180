#include "tlmlite/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace vpdift::tlmlite {

Bus::Bus(sysc::Simulation& sim, std::string name) : Module(sim, std::move(name)) {
  slots_.fill(kNoRange);
  tsock_.register_transport(
      [this](Payload& p, sysc::Time& delay) { transport(p, delay); });
}

void Bus::map(std::uint64_t base, std::uint64_t size, TargetSocket& target,
              std::string port_name) {
  if (size == 0) throw std::invalid_argument(name_ + ": empty bus mapping");
  for (const auto& r : ranges_)
    if (base < r.base + r.size && r.base < base + size)
      throw std::invalid_argument(name_ + ": overlapping bus mapping for '" +
                                  port_name + "' and '" + r.port_name + "'");
  const auto index = static_cast<std::uint32_t>(ranges_.size());
  ranges_.push_back(Range{base, size, &target, std::move(port_name)});
  constexpr std::uint64_t kTop = std::uint64_t{kSlots} << kSlotShift;  // 4 GiB
  if (base >= kTop) return;
  const std::uint64_t last = std::min(base + size, kTop) - 1;
  for (std::uint64_t s = base >> kSlotShift; s <= last >> kSlotShift; ++s)
    slots_[s] = slots_[s] == kNoRange ? index : kSeveral;
}

const Bus::Range* Bus::scan(std::uint64_t address) const {
  for (const auto& r : ranges_)
    if (r.contains(address)) return &r;
  return nullptr;
}

const Bus::Range* Bus::route(std::uint64_t address) const {
  const std::uint64_t s = address >> kSlotShift;
  if (s >= kSlots) return scan(address);
  const std::uint32_t index = slots_[s];
  if (index == kNoRange) return nullptr;
  if (index == kSeveral) return scan(address);
  const Range& r = ranges_[index];
  return r.contains(address) ? &r : nullptr;
}

void Bus::transport(Payload& p, sysc::Time& delay) {
  ++transactions_;
  const Range* r = route(p.address);
  if (r == nullptr || !r->contains(p.address + p.length - 1)) {
    p.response = Response::kAddressError;
    return;
  }
  const std::uint64_t original = p.address;
  p.address -= r->base;
  r->target->b_transport(p, delay);
  p.address = original;
}

std::string Bus::port_at(std::uint64_t address) const {
  const Range* r = route(address);
  return r ? r->port_name : std::string{};
}

}  // namespace vpdift::tlmlite
