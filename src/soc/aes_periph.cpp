#include "soc/aes_periph.hpp"

#include "dift/context.hpp"
#include "dift/taint.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::soc {

AesPeriph::AesPeriph(sysc::Simulation& sim, std::string name)
    : Module(sim, std::move(name)), engine_where_(name_ + ".engine") {
  tsock_.register_transport(
      [this](tlmlite::Payload& p, sysc::Time& d) { transport(p, d); });
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
                     dift::ViolationKind::kExecUnitClearance, 0, 0,
                     engine_where_.c_str());

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

void AesPeriph::transport(tlmlite::Payload& p, sysc::Time& delay) {
  delay += sysc::Time::ns(100);
  p.response = tlmlite::Response::kOk;
  const std::uint64_t a = p.address;

  if (a >= kKey && a + p.length <= kKey + 16) {
    if (!p.is_write()) { p.response = tlmlite::Response::kGenericError; return; }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      key_[a - kKey + i] = p.data[i];
      key_tags_[a - kKey + i] = p.tainted() ? p.tags[i] : dift::kBottomTag;
    }
    done_ = false;
    return;
  }
  if (a >= kInput && a + p.length <= kInput + 16) {
    if (!p.is_write()) { p.response = tlmlite::Response::kGenericError; return; }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      input_[a - kInput + i] = p.data[i];
      input_tags_[a - kInput + i] = p.tainted() ? p.tags[i] : dift::kBottomTag;
    }
    done_ = false;
    return;
  }
  if (a >= kOutput && a + p.length <= kOutput + 16) {
    if (!p.is_read()) { p.response = tlmlite::Response::kGenericError; return; }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      p.data[i] = output_[a - kOutput + i];
      if (p.tainted()) p.tags[i] = output_data_tag_;
    }
    return;
  }
  if (a == kCtrl) {
    if (p.is_write() && p.data[0] == 1) encrypt();
    return;
  }
  if (a == kStatus) {
    if (!p.is_read()) { p.response = tlmlite::Response::kGenericError; return; }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      p.data[i] = i == 0 && done_ ? 1 : 0;
      if (p.tainted()) p.tags[i] = dift::kBottomTag;
    }
    return;
  }
  p.response = tlmlite::Response::kAddressError;
}

}  // namespace vpdift::soc
