// Memory-mapped AES-128 engine with declassification.
//
// The case-study immobilizer uses this peripheral to encrypt the engine's
// challenge with the secret PIN. Per the security policy, the AES unit holds
// a high execution clearance (it may process (HC,HI) data) and — being
// trusted hardware — declassifies its ciphertext so that it can leave the
// system on the CAN bus.
//
// Register map:
//   0x00..0x0f KEY    (w)
//   0x10..0x1f INPUT  (w)
//   0x20..0x2f OUTPUT (r)  tainted with the declassified tag
//   0x30       CTRL   (w)  write 1: encrypt INPUT under KEY into OUTPUT
//   0x34       STATUS (r)  bit0: done
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "dift/policy.hpp"
#include "dift/tag.hpp"
#include "soc/aes128.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/socket.hpp"

namespace vpdift::soc {

class AesPeriph : public sysc::Module, public tlmlite::RegisterTarget {
 public:
  static constexpr std::uint64_t kKey = 0x00, kInput = 0x10, kOutput = 0x20,
                                 kCtrl = 0x30, kStatus = 0x34;

  AesPeriph(sysc::Simulation& sim, std::string name);

  tlmlite::TargetSocket& socket() { return tsock_; }

  // Register entry (tlmlite::RegisterTarget). KEY, INPUT and OUTPUT are
  // byte windows: each byte keeps its own tag.
  tlmlite::RegRead read(std::uint64_t off, std::uint32_t size) override;
  tlmlite::Response write(std::uint64_t off, std::uint32_t size, std::uint32_t value,
                          std::optional<dift::Tag> tag) override;
  bool byte_window(std::uint64_t off, std::uint32_t size) const override {
    return in_block(off, size, kKey) || in_block(off, size, kInput) ||
           in_block(off, size, kOutput);
  }

  /// Execution clearance of the engine: the combined class of KEY and INPUT
  /// must flow here, else kExecUnitClearance is raised on CTRL.
  void set_unit_clearance(std::optional<dift::Tag> tag) { unit_clearance_ = tag; }
  /// Declassification: ciphertext is re-tagged to `output_tag` using the
  /// granted right. Without a right, the ciphertext keeps the combined tag.
  void set_declass(dift::DeclassRight right, dift::Tag output_tag) {
    declass_ = std::move(right);
    output_tag_ = output_tag;
  }

  std::uint64_t encryptions() const { return encryptions_; }

  /// Snapshotable device state (key/input/output blocks with their tags;
  /// clearances and declassification rights are policy configuration).
  struct State {
    AesKey key{};
    std::array<dift::Tag, 16> key_tags{};
    AesBlock input{};
    std::array<dift::Tag, 16> input_tags{};
    AesBlock output{};
    dift::Tag output_data_tag = dift::kBottomTag;
    bool done = false;
    std::uint64_t encryptions = 0;
  };
  State save_state() const {
    return {key_,    key_tags_,        input_, input_tags_,
            output_, output_data_tag_, done_,  encryptions_};
  }
  void load_state(const State& s) {
    key_ = s.key;
    key_tags_ = s.key_tags;
    input_ = s.input;
    input_tags_ = s.input_tags;
    output_ = s.output;
    output_data_tag_ = s.output_data_tag;
    done_ = s.done;
    encryptions_ = s.encryptions;
  }

 private:
  /// [off, off+size) lies in the 16-byte block window at `base`.
  static bool in_block(std::uint64_t off, std::uint32_t size, std::uint64_t base) {
    return off >= base && off + size <= base + 16;
  }
  void encrypt();

  tlmlite::TargetSocket tsock_;
  const std::string engine_where_;  ///< clearance-check site name
  AesKey key_{};
  std::array<dift::Tag, 16> key_tags_{};
  AesBlock input_{};
  std::array<dift::Tag, 16> input_tags_{};
  AesBlock output_{};
  dift::Tag output_data_tag_ = dift::kBottomTag;
  bool done_ = false;
  std::optional<dift::Tag> unit_clearance_;
  dift::DeclassRight declass_;
  dift::Tag output_tag_ = dift::kBottomTag;
  std::uint64_t encryptions_ = 0;
};

}  // namespace vpdift::soc
