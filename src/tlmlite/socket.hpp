// Blocking-transport sockets (TLM-2.0 b_transport equivalent).
//
// A TargetSocket is registered with the target's transport function, or with
// a register device (see registers.hpp), whose payloads it then serves
// through the payload shim; an InitiatorSocket is bound to exactly one
// TargetSocket. Transport is synchronous: the target annotates access
// latency into `delay` rather than suspending (loosely-timed modelling
// style, as used by riscv-vp).
#pragma once

#include <functional>
#include <stdexcept>
#include <string>

#include "sysc/time.hpp"
#include "tlmlite/payload.hpp"
#include "tlmlite/registers.hpp"

namespace vpdift::tlmlite {

class TargetSocket {
 public:
  using Transport = std::function<void(Payload&, sysc::Time&)>;

  /// Registers the target's transport callback (must be done before use).
  void register_transport(Transport fn) { transport_ = std::move(fn); }

  /// Registers a register device: payloads are served by serve() with
  /// `latency` annotated per transaction, and a Bus that maps this socket
  /// calls the device's register entry directly.
  void register_registers(RegisterTarget& target, sysc::Time latency) {
    registers_ = &target;
    latency_ = latency;
  }
  /// The register device behind this socket, or nullptr.
  RegisterTarget* registers() const { return registers_; }

  void b_transport(Payload& p, sysc::Time& delay) {
    if (registers_) {
      delay += latency_;
      serve(*registers_, p);
      return;
    }
    if (!transport_) throw std::logic_error("TargetSocket: no transport registered");
    transport_(p, delay);
  }

  bool bound() const { return registers_ != nullptr || static_cast<bool>(transport_); }

 private:
  Transport transport_;
  RegisterTarget* registers_ = nullptr;
  sysc::Time latency_;
};

class InitiatorSocket {
 public:
  void bind(TargetSocket& target) { target_ = &target; }
  bool bound() const { return target_ != nullptr; }

  void b_transport(Payload& p, sysc::Time& delay) {
    if (!target_) throw std::logic_error("InitiatorSocket: unbound");
    target_->b_transport(p, delay);
  }

 private:
  TargetSocket* target_ = nullptr;
};

}  // namespace vpdift::tlmlite
