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
  ranges_.push_back(
      Range{base, size, &target, target.registers(), std::move(port_name)});
  if (RegisterTarget* regs = target.registers()) regs->base_ = base;
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

void Bus::transport(Payload& p, sysc::Time& delay) {
  ++transactions_;
  const Range* r = route(p.address);
  if (r == nullptr || !r->contains(p.address + p.length - 1)) {
    p.response = Response::kAddressError;
    return;
  }
  p.address -= r->base;
  try {
    r->target->b_transport(p, delay);
  } catch (...) {
    // A clearance violation: the initiator's catch sees the bus address.
    p.address += r->base;
    throw;
  }
  p.address += r->base;
}

RegRead Bus::read_payload(const Range& r, std::uint64_t addr, std::uint32_t size) {
  std::uint8_t buf[4] = {};
  dift::Tag tbuf[4] = {};
  Payload p;
  p.command = Command::kRead;
  p.address = addr - r.base;
  p.data = buf;
  p.tags = tbuf;  // a target without a tag plane fills ⊥
  p.length = size;
  sysc::Time delay;
  r.target->b_transport(p, delay);
  if (!p.ok()) return reg_error(p.response);
  RegRead v;
  for (std::uint32_t i = 0; i < size; ++i) {
    v.value |= std::uint32_t(buf[i]) << (8 * i);
    v.tags |= std::uint32_t(tbuf[i]) << (8 * i);
  }
  v.uniform = p.tags_uniform();
  return v;
}

Response Bus::write_payload(const Range& r, std::uint64_t addr, std::uint32_t size,
                            std::uint32_t value, std::optional<dift::Tag> tag) {
  std::uint8_t buf[4];
  dift::Tag tbuf[4];
  for (std::uint32_t i = 0; i < size; ++i) {
    buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    tbuf[i] = tag.value_or(dift::kBottomTag);
  }
  Payload p;
  p.command = Command::kWrite;
  p.address = addr - r.base;
  p.data = buf;
  p.tags = tag ? tbuf : nullptr;
  p.length = size;
  if (tag) p.set_tag_summary(*tag);  // tbuf is uniform
  sysc::Time delay;
  r.target->b_transport(p, delay);
  return p.response;
}

std::string Bus::port_at(std::uint64_t address) const {
  const Range* r = route(address);
  return r ? r->port_name : std::string{};
}

}  // namespace vpdift::tlmlite
