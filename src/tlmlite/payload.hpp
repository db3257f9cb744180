// TLM-2.0-style generic payload carrying tainted data.
//
// The paper embeds Taint<uint8_t> arrays into TLM generic payloads by
// casting the transaction's char data pointer. We keep the value and tag
// planes as two parallel pointers instead: `data` always points at the raw
// bytes, `tags` points at one dift::Tag per byte — or is nullptr when the
// initiator is the plain (non-DIFT) VP. Peripherals thus serve both the VP
// and the VP+ build from the same transport code.
#pragma once

#include <cstdint>

#include "dift/tag.hpp"

namespace vpdift::tlmlite {

enum class Command : std::uint8_t { kRead, kWrite };

// 32 bits wide so that a RegRead (registers.hpp), whose only other narrow
// member is its uniform flag, comes back from a register read in two
// registers: two byte-wide members made g++ assemble it through the stack,
// which stalled every MMIO load on a failed store-to-load forward.
enum class Response : std::uint32_t {
  kOk,
  kAddressError,  ///< no target mapped / offset out of range
  kGenericError,  ///< target rejected the transaction
};

/// One bus transaction. The initiator owns the data/tag buffers.
struct Payload {
  /// tag_summary sentinel: the tag bytes are not known to be uniform.
  static constexpr std::uint16_t kMixedTags = 0xffff;

  Command command = Command::kRead;
  std::uint64_t address = 0;   ///< bus address; routers rebase to target offset
  std::uint8_t* data = nullptr;
  dift::Tag* tags = nullptr;   ///< nullptr => initiator does not track taint
  std::uint32_t length = 0;
  Response response = Response::kGenericError;

  /// Shadow-summary hint (see dift/shadow.hpp): when != kMixedTags, every
  /// byte of `tags` carries this one tag. Targets set it on reads served
  /// from a uniform block; initiators set it on writes whose tag bytes they
  /// filled uniformly (the CPU store path, DMA forwarding a uniform burst).
  /// Whoever sets it vouches that it matches the tag plane — kMixedTags is
  /// always a safe default.
  std::uint16_t tag_summary = kMixedTags;

  bool is_read() const { return command == Command::kRead; }
  bool is_write() const { return command == Command::kWrite; }
  bool tainted() const { return tags != nullptr; }
  bool ok() const { return response == Response::kOk; }
  bool tags_uniform() const { return tag_summary != kMixedTags; }
  void set_tag_summary(dift::Tag t) { tag_summary = t; }
};

}  // namespace vpdift::tlmlite
