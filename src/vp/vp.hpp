// The virtual prototype: CPU + bus + peripherals, assembled and runnable.
//
// VirtualPrototype<rv::PlainWord> is the original VP of the paper's Table II;
// VirtualPrototype<rv::TaintedWord> is the VP+ with the DIFT engine. Both are
// built from the same peripheral models (the payload's tag pointer is simply
// null in the plain build) — mirroring how the paper patches one code base.
//
// Typical use:
//   vp::Vp plain;                         // or vp::VpDift tainted;
//   plain.load(program);
//   auto result = plain.run(sysc::Time::sec(10));
//
// DIFT use adds a policy (and the lattice must outlive the run):
//   vp::VpDift v;
//   v.load(program);
//   v.apply_policy(policy);
//   auto result = v.run(sysc::Time::sec(10));
//   if (result.violation()) ... result.violation_kind / message ...
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "dift/context.hpp"
#include "dift/policy.hpp"
#include "dift/stats.hpp"
#include "rv/core.hpp"
#include "rvasm/program.hpp"
#include "soc/addrmap.hpp"
#include "soc/aes_periph.hpp"
#include "soc/can.hpp"
#include "soc/clint.hpp"
#include "soc/dma.hpp"
#include "soc/gpio.hpp"
#include "soc/memory.hpp"
#include "soc/spiflash.hpp"
#include "soc/watchdog.hpp"
#include "soc/plic.hpp"
#include "soc/sensor.hpp"
#include "soc/sysctrl.hpp"
#include "soc/uart.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/bus.hpp"

namespace vpdift::vp {

/// Why a VP run ended. Exactly one reason per run — the old overlapping
/// `exited` / `timed_out` / `violation` booleans survive as derived
/// accessors on RunResult.
enum class ExitReason : std::uint8_t {
  kSimTimeout,     ///< the simulated-time budget ran out
  kExit,           ///< firmware wrote the EXIT register
  kViolation,      ///< the DIFT engine stopped the run (enforcement mode)
  kWallTimeout,    ///< a wall-clock guard stopped the simulation
  kWatchdogReset,  ///< budget ran out while the watchdog was reset-cycling
  kTrap,           ///< fatal trap: the core trapped with a null trap vector
  /// A decoded result carried a reason this build does not know (a newer
  /// peer on the wire). Never produced by a local run; the raw name
  /// survives in RunResult::reason_raw so the round trip is lossless.
  kUnknown,
};
const char* to_string(ExitReason reason);

/// Outcome of one VP run.
struct RunResult {
  ExitReason reason = ExitReason::kSimTimeout;
  /// The verbatim reason string a decode could not map (reason == kUnknown
  /// only); empty for every locally produced result.
  std::string reason_raw;
  std::uint32_t exit_code = 0;
  /// Watchdog resets fired during this run (RAM survives each one).
  std::uint32_t watchdog_resets = 0;

  // Derived views of `reason`, kept for the historical three-bool API.
  bool exited() const { return reason == ExitReason::kExit; }
  bool violation() const { return reason == ExitReason::kViolation; }
  bool timed_out() const { return !exited() && !violation(); }

  dift::ViolationKind violation_kind{};
  dift::Tag violation_source = 0;
  dift::Tag violation_required = 0;
  std::uint64_t violation_pc = 0;
  std::string violation_where;
  std::string violation_message;

  /// Violations captured in monitor mode (empty in enforcement mode).
  std::vector<dift::ViolationRecord> recorded_violations;

  /// Formatted tail of the execution trace at the moment a violation fired
  /// (only when tracing was enabled via enable_trace()).
  std::string trace_dump;

  std::uint64_t instret = 0;      ///< executed instructions
  double wall_seconds = 0.0;      ///< host wall-clock time of the run
  double mips = 0.0;              ///< instret / wall_seconds / 1e6
  sysc::Time sim_time;            ///< simulated time consumed
  std::string uart_output;        ///< everything the firmware printed
  std::string markers;            ///< SysCtrl marker log (attack oracles)

  /// DIFT engine counters for this run (all zero in the plain VP build).
  dift::DiftStats stats;
};

struct VpConfig {
  std::size_t ram_size = 4u << 20;
  std::uint64_t quantum_instructions = 8192;
  sysc::Time instruction_period = sysc::Time::ns(10);  // 100 MHz
  sysc::Time sensor_period = sysc::Time::ms(25);
  bool with_engine_ecu = false;
  soc::AesKey engine_pin{};
  sysc::Time engine_period = sysc::Time::ms(10);
  /// Non-empty: map an XIP SPI flash with this image at addrmap::kFlashBase.
  std::vector<std::uint8_t> flash_image;
  dift::Tag flash_tag = dift::kBottomTag;
};

/// True iff two configs produce structurally identical VPs — the test a
/// warm-VP pool uses to decide between re-arming (reset + load_firmware)
/// and rebuilding. Field-by-field equality, including the flash image.
bool config_equivalent(const VpConfig& a, const VpConfig& b);

/// Full-fidelity VP checkpoint: architectural CPU state, RAM (with tag
/// plane), every peripheral's internal state, and the scheduling phase of
/// each kernel process (CPU quantum progress, pending wake times).
///
/// Contract:
///  * snapshot() may be taken at any point — pre-start, between runs, or
///    from inside a running simulation (e.g. an arm_fault callback or a
///    scheduled time callback). The capture is synchronous and complete.
///  * restore() onto a FRESH VP (constructed, load()ed, not yet started)
///    rewinds the target's simulation clock to `captured_at` and re-arms
///    every peripheral process so the continuation is equivalent to the
///    source simply having kept running — the basis of fork-based fault
///    campaigns.
///  * restore() onto a STARTED VP keeps the legacy in-place semantics:
///    architectural state (registers, pc, CSRs, counters, RAM, tags) is
///    restored, the translated-block cache is invalidated, and any armed
///    fault is cleared; simulated time and peripheral processes are left
///    alone. Use a fresh VP for faithful re-execution.
///  * An armed-but-unfired rv::Core::arm_fault trigger is never inherited:
///    `fault_was_armed`/`fault_trigger` record that one existed (the
///    callback itself is not serialisable) and restore() disarms.
///
/// RAM and tag plane are sparse (soc::SparsePlane): only pages that are not
/// all zero / all ⊥ are held, so a snapshot costs a few KiB, not the size
/// of RAM twice. snapshot() and restore() visit only the RAM pages in the
/// memory's written-page set and the tag pages the shadow summary calls
/// live, so their cost follows the pages a run wrote, not the size of RAM.
///
/// The struct is deliberately not a template: a plain-VP snapshot has an
/// empty `ram_tags`; restoring it into a DIFT VP clears the target's tag
/// plane to kBottomTag (keeping the shadow summary coherent) rather than
/// silently keeping stale tags.
struct VpSnapshot {
  std::array<std::uint32_t, 32> reg_values{};
  std::array<dift::Tag, 32> reg_tags{};
  std::uint32_t pc = 0;
  rv::CsrFile csrs;
  std::uint64_t instret = 0;
  bool wfi = false;
  soc::SparsePlane ram;
  soc::SparsePlane ram_tags;
  sysc::Time captured_at;

  // CPU process phase: instructions already retired inside the interrupted
  // quantum, the absolute wake time of the pending quantum delay, and
  // whether a stop request was outstanding at capture time.
  std::uint64_t quantum_carry = 0;
  sysc::Time cpu_wake;
  bool stop_pending = false;

  // Armed-fault bookkeeping (informational; restore() always disarms).
  bool fault_was_armed = false;
  std::uint64_t fault_trigger = 0;

  /// Cumulative engine counters at capture time. For a VP that has run
  /// from reset under one DiftContext (the fork engine's golden cursor),
  /// this is the golden-prefix contribution to a composed run's stats.
  dift::DiftStats stats;

  // Peripheral-internal state (see each peripheral's State type).
  soc::Uart::State uart;
  soc::CanPeriph::State can;
  soc::Dma::State dma;
  soc::Clint::State clint;
  soc::Plic::State plic;
  soc::Sensor::State sensor;
  soc::Watchdog::State watchdog;
  soc::SysCtrl::State sysctrl;
  soc::Gpio::State gpio;
  soc::AesPeriph::State aes;
  std::optional<soc::EngineEcu::State> engine;
  std::optional<soc::SpiFlash::State> flash;
};

template <typename W>
class VirtualPrototype {
 public:
  static constexpr bool kTainted = rv::WordOps<W>::kTainted;

  explicit VirtualPrototype(VpConfig config = {});

  /// Multi-ECU form: builds this VP inside an external simulation so several
  /// prototypes can share one kernel (e.g. two ECUs on a CAN link). The
  /// caller drives `sim` itself: call start() on each VP, wire the links,
  /// then sim.run(...). run() must not be used on a shared-simulation VP.
  /// `instance` prefixes the module names ("ecu1.uart0", ...).
  VirtualPrototype(sysc::Simulation& sim, VpConfig config,
                   const std::string& instance = {});

  /// Spawns the VP's processes (CPU quantum thread, peripherals). run() does
  /// this implicitly; shared-simulation setups call it explicitly.
  void start();

  /// Rewinds this VP to its just-constructed state so it can be re-armed
  /// with load_firmware()/apply_policy() instead of rebuilt: kernel reset
  /// (all processes destroyed, clock back to zero), full CPU reset, RAM and
  /// tag plane cleared, every peripheral back to power-on state, policy
  /// configuration dropped. Construction wiring (bus map, IRQ routing, the
  /// optional engine ECU and flash) is preserved — that is exactly what the
  /// VpConfig determines, so a pool may reuse a VP across jobs whose
  /// configs are config_equivalent(). Only valid on a VP that owns its
  /// simulation (throws std::logic_error for shared-kernel multi-ECU VPs).
  /// `keep_translations` keeps the core's translated-block cache warm
  /// across the re-arm — sound only when the subsequently loaded
  /// firmware is byte-identical (the pool gates this on the firmware
  /// content hash); a reload with other bytes moves the code-write epoch,
  /// so a changed block is re-translated on its next entry regardless.
  void reset(bool keep_translations = false);

  /// Loads a program image into RAM and points the core at its entry.
  /// On a warm (reset) VP this is the re-arm step of the service's
  /// construction/load split.
  void load_firmware(const rvasm::Program& program);

  /// Historical name of load_firmware().
  void load(const rvasm::Program& program) { load_firmware(program); }

  /// Installs the security policy: memory classification, peripheral
  /// clearances, declassification rights, and CPU execution clearance.
  /// Call after load() (classification tags the loaded image). The lattice
  /// referenced by the policy must outlive this object.
  void apply_policy(const dift::SecurityPolicy& policy);

  /// Monitor mode: violations are recorded into RunResult instead of
  /// stopping the simulation — one run surfaces every forbidden flow, which
  /// is the mode of choice while a policy is being developed.
  void set_monitor_mode(bool on) { monitor_mode_ = on; }

  /// Keeps the last `depth` executed instructions (with result values and
  /// tags); a violation's RunResult then carries the formatted history.
  void enable_trace(std::size_t depth = 32) {
    trace_ = std::make_unique<rv::TraceBuffer>(depth);
    core_.set_trace(trace_.get());
  }
  const rv::TraceBuffer* trace() const { return trace_.get(); }

  /// Runs until firmware exit, a policy violation, or `max_sim_time`.
  RunResult run(sysc::Time max_sim_time = sysc::Time::sec(100));

  /// Full-fidelity VP checkpoint — see VpSnapshot for the contract.
  using Snapshot = VpSnapshot;
  Snapshot snapshot();
  void restore(const Snapshot& s);

  // ---- component access (tests, experiment harnesses) ----
  const VpConfig& config() const { return cfg_; }
  sysc::Simulation& sim() { return *sim_; }
  rv::Core<W>& core() { return core_; }
  soc::Memory& ram() { return ram_; }
  soc::Uart& uart() { return uart_; }
  soc::Sensor& sensor() { return sensor_; }
  soc::Dma& dma() { return dma_; }
  soc::AesPeriph& aes() { return aes_; }
  soc::CanPeriph& can() { return can_; }
  soc::Clint& clint() { return clint_; }
  soc::Plic& plic() { return plic_; }
  soc::SysCtrl& sysctrl() { return sysctrl_; }
  soc::Gpio& gpio() { return gpio_; }
  soc::Watchdog& watchdog() { return wdt_; }
  soc::SpiFlash* flash() { return flash_.get(); }
  soc::EngineEcu* engine() { return engine_.get(); }
  tlmlite::Bus& bus() { return bus_; }
  const dift::SecurityPolicy* policy() const {
    return policy_ ? &*policy_ : nullptr;
  }

 private:
  VirtualPrototype(sysc::Simulation* external, VpConfig config,
                   const std::string& instance);
  sysc::Task cpu_thread();
  dift::DiftStats capture_stats() const;

  VpConfig cfg_;
  std::unique_ptr<sysc::Simulation> owned_sim_;  // engaged unless shared
  sysc::Simulation* sim_;
  tlmlite::Bus bus_;
  soc::Memory ram_;
  soc::Uart uart_;
  soc::Sensor sensor_;
  soc::Dma dma_;
  soc::AesPeriph aes_;
  soc::CanPeriph can_;
  soc::Clint clint_;
  soc::Plic plic_;
  soc::SysCtrl sysctrl_;
  soc::Gpio gpio_;
  soc::Watchdog wdt_;
  std::unique_ptr<soc::SpiFlash> flash_;
  std::unique_ptr<soc::EngineEcu> engine_;
  rv::Core<W> core_;
  sysc::Event irq_event_;
  std::optional<dift::SecurityPolicy> policy_;
  std::unique_ptr<rv::TraceBuffer> trace_;
  bool started_ = false;
  bool monitor_mode_ = false;
  std::uint32_t boot_pc_ = soc::addrmap::kRamBase;

  // CPU quantum-phase tracking, so a snapshot taken mid-quantum (from an
  // arm_fault callback) records how far into the quantum the core is, and
  // so a restored cpu_thread can re-enter the interrupted quantum.
  std::uint64_t quantum_start_ = 0;  ///< instret at the current quantum's start
  bool in_quantum_ = false;          ///< inside core_.run() right now
  sysc::Time cpu_wake_;              ///< absolute end of the pending CPU delay
  bool resume_ = false;              ///< first cpu_thread activation is a resume
  sysc::Time resume_wake_;           ///< wake time to honour on resume
  std::uint64_t resume_carry_ = 0;   ///< instructions already retired in the quantum
  bool resume_stop_ = false;         ///< re-issue sim_->stop() after the resumed quantum
};

/// The original VP (plain machine words).
using Vp = VirtualPrototype<rv::PlainWord>;
/// The VP+ with the DIFT engine.
using VpDift = VirtualPrototype<rv::TaintedWord>;

extern template class VirtualPrototype<rv::PlainWord>;
extern template class VirtualPrototype<rv::TaintedWord>;

}  // namespace vpdift::vp
