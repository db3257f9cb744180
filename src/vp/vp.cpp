#include "vp/vp.hpp"
#include <cstdio>

namespace vpdift::vp {

namespace am = soc::addrmap;

const char* to_string(ExitReason reason) {
  switch (reason) {
    case ExitReason::kSimTimeout: return "sim-timeout";
    case ExitReason::kExit: return "exit";
    case ExitReason::kViolation: return "violation";
    case ExitReason::kWallTimeout: return "wall-timeout";
    case ExitReason::kWatchdogReset: return "watchdog-reset";
    case ExitReason::kTrap: return "trap";
    case ExitReason::kUnknown: return "unknown";
  }
  return "?";
}

template <typename W>
VirtualPrototype<W>::VirtualPrototype(VpConfig config)
    : VirtualPrototype(nullptr, std::move(config), {}) {}

template <typename W>
VirtualPrototype<W>::VirtualPrototype(sysc::Simulation& sim, VpConfig config,
                                      const std::string& instance)
    : VirtualPrototype(&sim, std::move(config), instance) {}

namespace {
std::string qualify(const std::string& instance, const char* name) {
  return instance.empty() ? std::string(name) : instance + "." + name;
}
}  // namespace

template <typename W>
VirtualPrototype<W>::VirtualPrototype(sysc::Simulation* external, VpConfig config,
                                      const std::string& instance)
    : cfg_(config),
      owned_sim_(external ? nullptr : std::make_unique<sysc::Simulation>()),
      sim_(external ? external : owned_sim_.get()),
      bus_(*sim_, qualify(instance, "bus0")),
      ram_(*sim_, qualify(instance, "ram0"), cfg_.ram_size, kTainted),
      uart_(*sim_, qualify(instance, "uart0")),
      sensor_(*sim_, qualify(instance, "sensor0"), cfg_.sensor_period),
      dma_(*sim_, qualify(instance, "dma0"), kTainted),
      aes_(*sim_, qualify(instance, "aes0")),
      can_(*sim_, qualify(instance, "can0")),
      clint_(*sim_, qualify(instance, "clint0")),
      plic_(*sim_, qualify(instance, "plic0")),
      sysctrl_(*sim_, qualify(instance, "sysctrl0")),
      gpio_(*sim_, qualify(instance, "gpio0")),
      wdt_(*sim_, qualify(instance, "wdt0")),
      irq_event_(*sim_) {
  // Address map.
  bus_.map(am::kRamBase, ram_.size(), ram_.socket(), "ram0");
  bus_.map(am::kClintBase, am::kClintSize, clint_.socket(), "clint0");
  bus_.map(am::kPlicBase, am::kPlicSize, plic_.socket(), "plic0");
  bus_.map(am::kUartBase, am::kUartSize, uart_.socket(), "uart0");
  bus_.map(am::kSysCtrlBase, am::kSysCtrlSize, sysctrl_.socket(), "sysctrl0");
  bus_.map(am::kSensorBase, am::kSensorSize, sensor_.socket(), "sensor0");
  bus_.map(am::kAesBase, am::kAesSize, aes_.socket(), "aes0");
  bus_.map(am::kCanBase, am::kCanSize, can_.socket(), "can0");
  bus_.map(am::kDmaBase, am::kDmaSize, dma_.socket(), "dma0");
  bus_.map(am::kGpioBase, am::kGpioSize, gpio_.socket(), "gpio0");
  bus_.map(am::kWdtBase, am::kWdtSize, wdt_.socket(), "wdt0");
  if (!cfg_.flash_image.empty()) {
    flash_ = std::make_unique<soc::SpiFlash>(*sim_, "flash0", cfg_.flash_image,
                                             cfg_.flash_tag);
    bus_.map(am::kFlashBase, flash_->size(), flash_->socket(), "flash0");
  }

  // Initiators.
  core_.set_bus(bus_);
  dma_.bus_socket().bind(bus_.target_socket());
  static_assert(rv::Core<W>::kWrittenPageShift == soc::SparsePlane::kPageShift);
  static_assert(rv::Core<W>::kCodeLineShift == soc::Memory::kCodeLineShift);
  core_.set_dmi(ram_.dmi_data(), ram_.tags(), ram_.written_pages(),
                ram_.code_lines(), ram_.code_epoch(), am::kRamBase, ram_.size(),
                ram_.tags() ? &ram_.shadow() : nullptr);
  core_.set_pc(am::kRamBase);
  core_.set_time_source([this] { return sim_->now().micros(); });

  // Interrupt wiring.
  auto wire_core_irq = [this](std::uint32_t bit) {
    return [this, bit](bool level) {
      core_.set_irq(bit, level);
      if (level) irq_event_.notify();
    };
  };
  clint_.set_timer_irq(wire_core_irq(rv::kIrqMtimer));
  clint_.set_soft_irq(wire_core_irq(rv::kIrqMsoft));
  plic_.set_ext_irq(wire_core_irq(rv::kIrqMext));
  sensor_.set_irq([this] { plic_.raise(am::kIrqSensor); });
  uart_.set_irq([this](bool level) { plic_.set_level(am::kIrqUartRx, level); });
  dma_.set_irq([this] { plic_.raise(am::kIrqDma); });
  wdt_.set_on_timeout([this] {
    // Watchdog reset: architectural CPU reset back to the boot entry; RAM
    // contents survive (as on real silicon).
    core_.reset(boot_pc_);
    core_.set_reg(2, rv::WordOps<W>::make(
                         static_cast<std::uint32_t>(am::kRamBase + ram_.size()),
                         dift::kBottomTag));
  });
  can_.set_irq([this](bool level) { plic_.set_level(am::kIrqCanRx, level); });

  // Optional engine ECU across the CAN link.
  if (cfg_.with_engine_ecu) {
    engine_ = std::make_unique<soc::EngineEcu>(*sim_, "engine-ecu", can_,
                                               cfg_.engine_pin, cfg_.engine_period);
    can_.set_on_tx([this](const soc::CanFrame& f) { engine_->on_frame(f); });
  }
}

bool config_equivalent(const VpConfig& a, const VpConfig& b) {
  return a.ram_size == b.ram_size &&
         a.quantum_instructions == b.quantum_instructions &&
         a.instruction_period == b.instruction_period &&
         a.sensor_period == b.sensor_period &&
         a.with_engine_ecu == b.with_engine_ecu &&
         a.engine_pin == b.engine_pin && a.engine_period == b.engine_period &&
         a.flash_image == b.flash_image && a.flash_tag == b.flash_tag;
}

template <typename W>
void VirtualPrototype<W>::reset(bool keep_translations) {
  if (!owned_sim_)
    throw std::logic_error(
        "VirtualPrototype::reset() requires an owned simulation "
        "(shared-kernel multi-ECU VPs cannot be individually reset)");
  sim_->reset();

  // CPU: full architectural reset (registers, CSRs, counters, WFI, fatal
  // trap), pending fault trigger disarmed, policy detached, translation
  // cache dropped (the next image has different bytes) — unless the caller
  // promised byte-identical firmware, in which case the translations stay
  // warm (they hold no policy state).
  core_.reset(am::kRamBase, keep_translations);
  core_.disarm_fault();
  core_.set_policy(nullptr);
  boot_pc_ = am::kRamBase;

  // Memory: zero data, bottom tags, coherent summaries.
  ram_.clear();

  // Peripherals: power-on state (State{} defaults equal the member
  // initializers — pinned by the warm re-arm tests).
  uart_.load_state({});
  can_.load_state({});
  dma_.load_state({});
  clint_.load_state({});
  plic_.load_state({});
  sensor_.load_state({});
  wdt_.load_state({});
  sysctrl_.load_state({});
  gpio_.load_state({});
  aes_.load_state({});
  if (engine_) engine_->load_state({});
  if (flash_) flash_->load_state({});

  // Policy residue: everything apply_policy() configures must revert, or a
  // warm VP re-armed with a weaker policy would keep the old one's
  // clearances/declassification rights.
  uart_.set_input_tag(dift::kBottomTag);
  uart_.set_output_clearance(std::nullopt);
  can_.set_input_tag(dift::kBottomTag);
  can_.set_output_clearance(std::nullopt);
  sensor_.set_data_tag(dift::kBottomTag);
  gpio_.set_input_tag(dift::kBottomTag);
  gpio_.set_output_clearance(std::nullopt);
  aes_.set_unit_clearance(std::nullopt);
  aes_.set_declass(dift::DeclassRight{}, dift::kBottomTag);
  if (flash_) flash_->set_image_tag(cfg_.flash_tag);
  policy_.reset();

  monitor_mode_ = false;
  started_ = false;
  quantum_start_ = 0;
  in_quantum_ = false;
  cpu_wake_ = sysc::Time();
  resume_ = false;
  resume_wake_ = sysc::Time();
  resume_carry_ = 0;
  resume_stop_ = false;
}

template <typename W>
void VirtualPrototype<W>::load_firmware(const rvasm::Program& program) {
  ram_.load_image(program, am::kRamBase);
  core_.set_pc(static_cast<std::uint32_t>(program.entry));
  boot_pc_ = static_cast<std::uint32_t>(program.entry);
  // ABI setup: stack grows down from the top of RAM.
  core_.set_reg(2, rv::WordOps<W>::make(
                       static_cast<std::uint32_t>(am::kRamBase + ram_.size()),
                       dift::kBottomTag));
}

template <typename W>
void VirtualPrototype<W>::apply_policy(const dift::SecurityPolicy& policy) {
  policy_ = policy;
  core_.set_policy(&*policy_);

  // (i) classification of memory regions.
  for (const auto& mc : policy_->memory_classification()) {
    if (mc.base >= am::kRamBase && mc.base + mc.size <= am::kRamBase + ram_.size())
      ram_.classify(mc.base - am::kRamBase, mc.size, mc.tag);
  }
  // (i) classification of peripheral inputs.
  uart_.set_input_tag(policy_->input_class("uart0.rx"));
  can_.set_input_tag(policy_->input_class("can0.rx"));
  sensor_.set_data_tag(policy_->input_class("sensor0"));

  // (iii) clearance of outputs and execution units.
  uart_.set_output_clearance(policy_->output_clearance("uart0.tx"));
  can_.set_output_clearance(policy_->output_clearance("can0.tx"));
  gpio_.set_output_clearance(policy_->output_clearance("gpio0.out"));
  gpio_.set_input_tag(policy_->input_class("gpio0.in"));
  aes_.set_unit_clearance(policy_->unit_clearance("aes0"));
  if (flash_) {
    // No flash class in the new policy: fall back to the config's tag, so
    // re-applying a weaker policy on a warm VP sheds the old one's class.
    flash_->set_image_tag(policy_->has_input_class("flash0")
                              ? policy_->input_class("flash0")
                              : cfg_.flash_tag);
  }

  // Declassification rights for trusted peripherals. Explicitly disengage
  // when the policy grants none — a warm VP must not keep the previous
  // policy's right.
  if (auto to = policy_->declass_output("aes0"))
    aes_.set_declass(policy_->grant_declass("aes0"), *to);
  else
    aes_.set_declass(dift::DeclassRight{}, dift::kBottomTag);
}

template <typename W>
dift::DiftStats VirtualPrototype<W>::capture_stats() const {
  dift::DiftStats s = core_.stats();
  s.lub_calls = dift::detail::g_active.lub_calls;
  // The core counts its execution-clearance checks; peripherals, store
  // protection and conversions count in the active context.
  s.flow_checks += dift::detail::g_active.flow_checks;
  s.mem_summary_hits = ram_.summary_hits();
  s.dma_summary_hits = dma_.summary_hits();
  s.bus_transactions = bus_.transactions();
  return s;
}

template <typename W>
auto VirtualPrototype<W>::snapshot() -> Snapshot {
  Snapshot s;
  for (int r = 0; r < 32; ++r) {
    const W w = core_.reg(static_cast<std::uint8_t>(r));
    s.reg_values[r] = rv::WordOps<W>::value(w);
    s.reg_tags[r] = rv::WordOps<W>::tag(w);
  }
  s.pc = core_.pc();
  s.csrs = core_.csrs();
  s.instret = core_.instret();
  s.wfi = core_.in_wfi();
  s.ram = ram_.save_data();
  s.ram_tags = ram_.save_tags();
  s.captured_at = sim_->now();

  // CPU process phase. Mid-quantum (arm_fault callback): the quantum's
  // remaining instructions resume immediately at captured_at. Suspended
  // (timed callback, between runs, pre-start): honour the pending wake.
  s.quantum_carry = in_quantum_ ? core_.instret() - quantum_start_ : 0;
  s.cpu_wake = in_quantum_ ? sim_->now() : cpu_wake_;
  s.stop_pending = sim_->stop_requested();

  s.fault_was_armed = core_.fault_armed();
  s.fault_trigger = core_.fault_at();
  s.stats = capture_stats();

  s.uart = uart_.save_state();
  s.can = can_.save_state();
  s.dma = dma_.save_state();
  s.clint = clint_.save_state();
  s.plic = plic_.save_state();
  s.sensor = sensor_.save_state();
  s.watchdog = wdt_.save_state();
  s.sysctrl = sysctrl_.save_state();
  s.gpio = gpio_.save_state();
  s.aes = aes_.save_state();
  if (engine_) s.engine = engine_->save_state();
  if (flash_) s.flash = flash_->save_state();
  return s;
}

template <typename W>
void VirtualPrototype<W>::restore(const Snapshot& s) {
  // First, because it rejects a size mismatch before changing anything. A
  // snapshot from a plain VP carries no tag plane: stale tags from the
  // pre-restore run must not leak into the restored world, so the restore
  // clears them to the bottom element.
  ram_.restore(s.ram, s.ram_tags);
  for (int r = 1; r < 32; ++r)
    core_.set_reg(static_cast<std::uint8_t>(r),
                  rv::WordOps<W>::make(s.reg_values[r], s.reg_tags[r]));
  core_.set_pc(s.pc);
  core_.csrs() = s.csrs;
  core_.restore_counters(s.instret, s.wfi);
  // A restored world starts with a cold translation cache, so a restored
  // run's block counters do not depend on what the VP ran before (the
  // restore moved the code-write epoch, so warm blocks would stay correct).
  core_.invalidate_blocks();
  // A forked tail must not inherit the parent's pending fault trigger.
  core_.disarm_fault();

  if (!started_ && sim_->idle()) {
    // Fresh VP: full-fidelity resume. Rewind the clock to the capture
    // instant and re-arm every peripheral process so the continuation is
    // equivalent to the source having kept running.
    uart_.load_state(s.uart);
    can_.load_state(s.can);
    dma_.load_state(s.dma);
    clint_.load_state(s.clint);
    plic_.load_state(s.plic);
    sensor_.load_state(s.sensor);
    wdt_.load_state(s.watchdog);
    sysctrl_.load_state(s.sysctrl);
    gpio_.load_state(s.gpio);
    aes_.load_state(s.aes);
    if (engine_ && s.engine) engine_->load_state(*s.engine);
    if (flash_ && s.flash) flash_->load_state(*s.flash);
    sim_->set_now(s.captured_at);
    resume_ = true;
    resume_wake_ = s.cpu_wake;
    resume_carry_ = s.quantum_carry;
    resume_stop_ = s.stop_pending;
  }
  // Started VP: legacy in-place semantics — architectural state only;
  // simulated time and peripheral processes are left alone.
}

template <typename W>
sysc::Task VirtualPrototype<W>::cpu_thread() {
  std::uint64_t carry = 0;
  if (resume_) {
    // First activation after a full-fidelity restore: re-enter the CPU
    // process exactly where the snapshot interrupted it. A mid-quantum
    // capture resumes the quantum's remainder immediately (before any
    // peripheral's timed wake at this instant, matching the cold order of
    // a quantum in flight); a suspended capture honours the pending wake.
    resume_ = false;
    carry = resume_carry_;
    if (resume_wake_ > sim_->now())
      co_await sim_->delay(resume_wake_ - sim_->now());
    if (core_.in_wfi() && !core_.irq_pending() && !sim_->stop_requested())
      co_await irq_event_;
  }
  while (!sim_->stop_requested()) {
    quantum_start_ = core_.instret() - carry;
    in_quantum_ = true;
    const rv::RunExit exit = core_.run(cfg_.quantum_instructions - carry);
    in_quantum_ = false;
    if (resume_stop_) {
      // The snapshot was taken after a stop request (e.g. the firmware's
      // EXIT write) in this same quantum; re-issue it so the simulation
      // halts at the quantum boundary like the cold run did.
      resume_stop_ = false;
      sim_->stop();
    }
    if (core_.fatal_trap()) {
      // The core trapped into a null trap vector — it would spin on
      // instruction-access faults at pc 0 until the simulated-time budget
      // burned down. Halt the CPU process instead; run() reports kTrap.
      sim_->stop();
      break;
    }
    // The post-quantum delay covers the whole quantum including any carry,
    // so quantum boundaries stay on the cold run's absolute schedule.
    const std::uint64_t executed = core_.instret() - quantum_start_;
    carry = 0;
    cpu_wake_ = sim_->now() + cfg_.instruction_period * (executed ? executed : 1);
    co_await sim_->delay(cpu_wake_ - sim_->now());
    if (exit == rv::RunExit::kWfi && !core_.irq_pending()) co_await irq_event_;
  }
}

template <typename W>
void VirtualPrototype<W>::start() {
  if (started_) return;
  started_ = true;
  sensor_.start();
  dma_.start();
  clint_.start();
  wdt_.start();
  if (engine_) engine_->start();
  sim_->spawn(cpu_thread());
}

template <typename W>
RunResult VirtualPrototype<W>::run(sysc::Time max_sim_time) {
  start();
  RunResult r;
  // Activate the policy's IFP for the duration of the run (nests with any
  // caller-provided context).
  std::optional<dift::DiftContext> ctx;
  if (policy_) {
    ctx.emplace(policy_->lattice());
    ctx->set_monitor_mode(monitor_mode_);
  }
  // Counter snapshot AFTER the context activates (its constructor zeroes the
  // lattice-table counters); the run's stats are the delta from here.
  const dift::DiftStats stats_before = capture_stats();
  const std::uint64_t instret_before = core_.instret();
  const std::uint32_t resets_before = wdt_.resets_fired();
  const sysc::Time deadline = sim_->now() + max_sim_time;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    sim_->run(deadline);
  } catch (const dift::PolicyViolation& v) {
    r.reason = ExitReason::kViolation;
    r.violation_kind = v.kind();
    r.violation_source = v.source();
    r.violation_required = v.required();
    r.violation_pc = v.pc();
    r.violation_where = v.where();
    r.violation_message = v.what();
    if (trace_) {
      r.trace_dump = trace_->format();
      // The offending instruction itself never retired (the check threw
      // mid-execution); reconstruct it from the faulting pc.
      if (v.pc() >= am::kRamBase && v.pc() + 4 <= am::kRamBase + ram_.size()) {
        char line[160];
        std::snprintf(line, sizeof line, "[violation] %08x: %s   <-- %s\n",
                      static_cast<std::uint32_t>(v.pc()),
                      rv::disassemble(ram_.read_u32(v.pc() - am::kRamBase)).c_str(),
                      dift::to_string(v.kind()));
        r.trace_dump += line;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (ctx) r.recorded_violations = ctx->recorded();
  r.watchdog_resets = wdt_.resets_fired() - resets_before;
  if (r.reason != ExitReason::kViolation) {
    if (sysctrl_.exited())
      r.reason = ExitReason::kExit;
    else if (core_.fatal_trap())
      r.reason = ExitReason::kTrap;
    else if (r.watchdog_resets > 0)
      r.reason = ExitReason::kWatchdogReset;
    else
      r.reason = ExitReason::kSimTimeout;
  }
  r.exit_code = sysctrl_.exit_code();
  // A watchdog reset zeroes the retirement counter; clamp so the delta stays
  // meaningful on a multi-run VP whose counter restarted below the snapshot.
  r.instret = core_.instret() >= instret_before ? core_.instret() - instret_before
                                                : core_.instret();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mips = r.wall_seconds > 0 ? r.instret / r.wall_seconds / 1e6 : 0.0;
  r.sim_time = sim_->now();
  r.uart_output = uart_.output();
  r.markers = sysctrl_.markers();
  r.stats = capture_stats() - stats_before;
  return r;
}

template class VirtualPrototype<rv::PlainWord>;
template class VirtualPrototype<rv::TaintedWord>;

}  // namespace vpdift::vp
