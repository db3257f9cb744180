#include "soc/aes_periph.hpp"

#include "dift/context.hpp"
#include "dift/taint.hpp"

namespace vpdift::soc {

AesPeriph::AesPeriph(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), engine_where_(name_ + ".engine") {
  tsock_.register_registers(*this, sysc::Time::ns(100));
}

void AesPeriph::encrypt() {
  // The unit clearance guards the key port (the sensitive asset): the key's
  // combined class must flow to the engine's clearance — e.g. (HC,HI) admits
  // the confidential, integrity-protected PIN but rejects attacker-supplied
  // keys. The data input is unconstrained (encrypting untrusted challenges
  // is the peripheral's job).
  dift::Tag key_tag = key_tags_[0];
  for (int i = 1; i < 16; ++i) key_tag = dift::lub(key_tag, key_tags_[i]);
  if (unit_clearance_)
    dift::check_flow(key_tag, *unit_clearance_,
                     dift::ViolationKind::kExecUnitClearance, 0,
                     bus_address(kCtrl), engine_where_.c_str());

  // The ciphertext depends on everything the engine processed.
  dift::Tag combined = key_tag;
  for (int i = 0; i < 16; ++i) combined = dift::lub(combined, input_tags_[i]);

  output_ = aes128_encrypt(key_, input_);
  if (declass_.engaged() && combined != output_tag_) {
    // Trusted-HW declassification along a sanctioned lattice edge.
    const dift::TaintedByte sample(0, combined);
    output_data_tag_ = declass_(sample, output_tag_).tag();
  } else {
    output_data_tag_ = combined;
  }
  done_ = true;
  ++encryptions_;
}

tlmlite::RegRead AesPeriph::read(std::uint64_t off, std::uint32_t size) {
  if (in_block(off, size, kOutput)) {
    tlmlite::RegRead r;
    for (std::uint32_t i = 0; i < size; ++i) {
      r.value |= std::uint32_t(output_[off - kOutput + i]) << (8 * i);
      r.tags |= std::uint32_t(output_data_tag_) << (8 * i);
    }
    return r;
  }
  if (in_block(off, size, kKey) || in_block(off, size, kInput))
    return tlmlite::reg_error(tlmlite::Response::kGenericError);  // write-only
  if (off == kCtrl) return {};
  if (off == kStatus) {
    tlmlite::RegRead r;
    r.value = done_ ? 1 : 0;
    return r;
  }
  return tlmlite::reg_error();
}

tlmlite::Response AesPeriph::write(std::uint64_t off, std::uint32_t size,
                                   std::uint32_t value, std::optional<dift::Tag> tag) {
  const bool key = in_block(off, size, kKey);
  if (key || in_block(off, size, kInput)) {
    const std::uint64_t at = off - (key ? kKey : kInput);
    for (std::uint32_t i = 0; i < size; ++i) {
      (key ? key_ : input_)[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
      (key ? key_tags_ : input_tags_)[at + i] = tag.value_or(dift::kBottomTag);
    }
    done_ = false;
    return tlmlite::Response::kOk;
  }
  if (in_block(off, size, kOutput) || off == kStatus)
    return tlmlite::Response::kGenericError;  // read-only
  if (off == kCtrl) {
    if ((value & 0xffu) == 1) encrypt();
    return tlmlite::Response::kOk;
  }
  return tlmlite::Response::kAddressError;
}

}  // namespace vpdift::soc
