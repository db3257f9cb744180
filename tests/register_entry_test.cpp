// The register-level MMIO entry against the payload shim.
//
// RegisterEntry: a core executing lb/lh/lw/lbu/lhu/sb/sh/sw against every
// register device (through Bus::read/Bus::write and the device's register
// entry) must agree with a payload sent through the bus (the payload shim)
// on value, tag, the uniform-tag hint, the counters and the device state.
// ViolationAddress: peripheral clearance violations name the bus address,
// in enforcement and in monitor mode.
// PeriphIoCounters: the peripheral-bound benchmark firmware keeps its exact
// per-run counters.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "dift/context.hpp"
#include "dift/policy_parser.hpp"
#include "fw/benchmarks.hpp"
#include "fw/immobilizer.hpp"
#include "micro_vm.hpp"
#include "rv/core.hpp"
#include "rvasm/assembler.hpp"
#include "soc/addrmap.hpp"
#include "soc/aes_periph.hpp"
#include "soc/can.hpp"
#include "soc/clint.hpp"
#include "soc/dma.hpp"
#include "soc/gpio.hpp"
#include "soc/memory.hpp"
#include "soc/plic.hpp"
#include "soc/sensor.hpp"
#include "soc/sysctrl.hpp"
#include "soc/uart.hpp"
#include "soc/watchdog.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/bus.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using dift::Tag;
using dift::kBottomTag;
namespace am = soc::addrmap;

constexpr std::uint64_t kRamBase = am::kRamBase;

/// One device behind the bus: where it is mapped and which offsets to probe.
struct Probe {
  const char* name;
  std::uint64_t base;
  std::uint64_t size;  ///< mapping size
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  ///< [lo, hi)
};

const std::vector<Probe>& probes() {
  static const std::vector<Probe> p = {
      {"uart", am::kUartBase, am::kUartSize, {{0, 0x14}}},
      {"can", am::kCanBase, am::kCanSize, {{0, 0x34}}},
      {"sensor", am::kSensorBase, am::kSensorSize, {{0, 0x48}}},
      {"aes", am::kAesBase, am::kAesSize, {{0, 0x3c}}},
      {"dma", am::kDmaBase, am::kDmaSize, {{0, 0x18}}},
      {"plic", am::kPlicBase, am::kPlicSize, {{0, 0x10}}},
      {"sysctrl", am::kSysCtrlBase, am::kSysCtrlSize, {{0, 0x0c}}},
      {"gpio", am::kGpioBase, am::kGpioSize, {{0, 0x10}}},
      {"wdt", am::kWdtBase, am::kWdtSize, {{0, 0x14}}},
      {"clint", am::kClintBase, am::kClintSize,
       {{0, 0x8}, {0x3ffc, 0x400c}, {0xbff4, 0xc000}}},
  };
  return p;
}

/// Every probed offset of `p`, plus the last bytes of the mapping (accesses
/// straddling its end fault) and the first unmapped byte after it.
std::vector<std::uint64_t> offsets(const Probe& p) {
  std::vector<std::uint64_t> out;
  for (const auto& [lo, hi] : p.spans)
    for (std::uint64_t o = lo; o < hi; ++o) out.push_back(o);
  for (std::uint64_t o = p.size - 3; o <= p.size; ++o) out.push_back(o);
  return out;
}

/// A SoC of every register device, RAM and a core of word type W.
template <typename W>
struct World {
  static constexpr bool kTagged = rv::WordOps<W>::kTainted;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus0"};
  soc::Memory ram{sim, "ram0", 64 * 1024, kTagged};
  soc::Uart uart{sim, "uart0"};
  soc::CanPeriph can{sim, "can0"};
  soc::Sensor sensor{sim, "sensor0"};
  soc::AesPeriph aes{sim, "aes0"};
  soc::Dma dma{sim, "dma0", kTagged};
  soc::Clint clint{sim, "clint0"};
  soc::Plic plic{sim, "plic0"};
  soc::SysCtrl sysctrl{sim, "sysctrl0"};
  soc::Gpio gpio{sim, "gpio0"};
  soc::Watchdog wdt{sim, "wdt0"};
  rv::Core<W> core;

  World() {
    bus.map(kRamBase, ram.size(), ram.socket(), "ram0");
    bus.map(am::kClintBase, am::kClintSize, clint.socket(), "clint0");
    bus.map(am::kPlicBase, am::kPlicSize, plic.socket(), "plic0");
    bus.map(am::kUartBase, am::kUartSize, uart.socket(), "uart0");
    bus.map(am::kSysCtrlBase, am::kSysCtrlSize, sysctrl.socket(), "sysctrl0");
    bus.map(am::kSensorBase, am::kSensorSize, sensor.socket(), "sensor0");
    bus.map(am::kAesBase, am::kAesSize, aes.socket(), "aes0");
    bus.map(am::kCanBase, am::kCanSize, can.socket(), "can0");
    bus.map(am::kDmaBase, am::kDmaSize, dma.socket(), "dma0");
    bus.map(am::kGpioBase, am::kGpioSize, gpio.socket(), "gpio0");
    bus.map(am::kWdtBase, am::kWdtSize, wdt.socket(), "wdt0");
    core.set_bus(bus);
    core.set_dmi(ram.dmi_data(), ram.tags(), ram.written_pages(), ram.code_lines(),
                 ram.code_epoch(), kRamBase, ram.size(),
                 ram.tags() ? &ram.shadow() : nullptr);

    // Input data with side-effecting reads, identical in every world.
    std::string rx;
    for (int i = 0; i < 400; ++i) rx.push_back(static_cast<char>('!' + i % 90));
    uart.feed_input(rx);
    for (std::uint32_t f = 0; f < 200; ++f) {
      soc::CanFrame frame;
      frame.id = 0x100 + f;
      frame.dlc = f % 9;
      for (std::uint32_t i = 0; i < 8; ++i)
        frame.data[i] = static_cast<std::uint8_t>(f * 8 + i);
      can.receive(frame);
    }
    gpio.set_input_pins(0x89abcdefu);
    for (std::uint32_t src = 1; src < 8; ++src) plic.raise(src);
  }

  /// The register entries, in probes() order.
  std::array<tlmlite::RegisterTarget*, 10> devices() {
    return {&uart, &can, &sensor, &aes, &dma, &plic, &sysctrl, &gpio, &wdt, &clint};
  }

  /// Every field of every device's snapshot state, as text.
  std::string state() const {
    std::ostringstream o;
    const auto put = [&o](const auto&... v) { ((o << +v << ','), ...); };
    const auto u = uart.save_state();
    for (auto b : u.rx) put(b);
    o << '|' << u.tx_log << '|';
    put(u.ie);
    const auto c = can.save_state();
    put(c.tx.id, c.tx.dlc, c.ie, c.tx_count, c.bus_off, c.rx.size());
    for (std::size_t i = 0; i < 8; ++i) put(c.tx.data[i], c.tx_tags[i]);
    if (!c.rx.empty()) put(c.rx.front().id);
    const auto s = sensor.save_state();
    for (const auto& cell : s.frame) put(cell.value(), cell.tag());
    put(s.data_tag, s.lcg, s.frames);
    const auto a = aes.save_state();
    for (std::size_t i = 0; i < 16; ++i)
      put(a.key[i], a.key_tags[i], a.input[i], a.input_tags[i], a.output[i]);
    put(a.output_data_tag, a.done, a.encryptions);
    const auto d = dma.save_state();
    put(d.src, d.dst, d.len, d.busy, d.done, d.cur_src, d.cur_dst, d.remaining);
    const auto cl = clint.save_state();
    put(cl.mtimecmp, cl.msip, cl.parked);
    const auto p = plic.save_state();
    put(p.pending, p.enable);
    const auto sc = sysctrl.save_state();
    put(sc.exited, sc.exit_code);
    o << sc.markers << '|';
    const auto g = gpio.save_state();
    put(g.out, g.in, g.dir);
    const auto w = wdt.save_state();
    put(w.timeout_us, w.deadline_us, w.enabled, w.resets);
    return o.str();
  }
};

/// The program the core runs: one access of each form, at labelled pcs.
rvasm::Program access_program() {
  rvasm::Assembler a(kRamBase);
  a.label("lb");
  a.lb(a2, a0, 0);
  a.label("lh");
  a.lh(a2, a0, 0);
  a.label("lw");
  a.lw(a2, a0, 0);
  a.label("lbu");
  a.lbu(a2, a0, 0);
  a.label("lhu");
  a.lhu(a2, a0, 0);
  a.label("sb");
  a.sb(a1, a0, 0);
  a.label("sh");
  a.sh(a1, a0, 0);
  a.label("sw");
  a.sw(a1, a0, 0);
  a.label("spin");
  a.j("spin");
  return a.assemble();
}

struct Form {
  const char* label;
  std::uint32_t size;
  bool store;
  bool sign;
};
constexpr Form kForms[] = {{"lb", 1, false, true},   {"lh", 2, false, true},
                           {"lw", 4, false, false},  {"lbu", 1, false, false},
                           {"lhu", 2, false, false}, {"sb", 1, true, false},
                           {"sh", 2, true, false},   {"sw", 4, true, false}};

/// What one access did, from either side.
struct Outcome {
  bool fault = false;
  std::uint32_t value = 0;
  Tag tag = kBottomTag;
  std::uint64_t summary_hits = 0, lub_calls = 0, flow_checks = 0, bus = 0;
  std::vector<std::string> records;  ///< monitor records, without the pc

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& o, const Outcome& r) {
  o << "{fault " << r.fault << " value " << std::hex << r.value << std::dec
    << " tag " << +r.tag << " hits " << r.summary_hits << " lubs " << r.lub_calls
    << " checks " << r.flow_checks << " bus " << r.bus << " records";
  for (const auto& s : r.records) o << " [" << s << "]";
  return o << "}";
}

std::vector<std::string> new_records(std::size_t from) {
  std::vector<std::string> out;
  if (auto* ctx = dift::DiftContext::active())
    for (std::size_t i = from; i < ctx->recorded().size(); ++i) {
      const auto& r = ctx->recorded()[i];
      std::ostringstream o;
      o << dift::to_string(r.kind) << ' ' << +r.source << "->" << +r.required
        << " @" << std::hex << r.address << ' ' << r.where;
      out.push_back(o.str());
    }
  return out;
}

std::size_t record_count() {
  auto* ctx = dift::DiftContext::active();
  return ctx ? ctx->recorded().size() : 0;
}

std::uint32_t extend(std::uint32_t v, const Form& f) {
  if (f.sign && f.size == 1)
    return static_cast<std::uint32_t>(static_cast<std::int8_t>(v));
  if (f.sign && f.size == 2)
    return static_cast<std::uint32_t>(static_cast<std::int16_t>(v));
  return v;
}

/// The access on the core: one instruction of the access program.
template <typename W>
Outcome run_core(World<W>& w, const rvasm::Program& prog, const Form& f,
                 std::uint32_t addr, std::uint32_t value, Tag tag) {
  using Ops = rv::WordOps<W>;
  const auto& g = dift::detail::g_active;
  const std::uint64_t hits = w.core.stats().load_summary_hits, lubs = g.lub_calls,
                      checks = testutil::flow_checks(w.core), bus = w.bus.transactions();
  const std::size_t recs = record_count();
  w.core.set_reg(a0, Ops::make(addr, kBottomTag));
  w.core.set_reg(a1, Ops::make(value, tag));
  w.core.set_reg(a2, Ops::make(0xdeadbeefu, kBottomTag));
  w.core.csrs().mcause.value = ~0u;
  w.core.set_pc(static_cast<std::uint32_t>(prog.symbol(f.label)));
  w.core.run(1);
  Outcome r;
  r.fault = w.core.csrs().mcause.value ==
            (f.store ? rv::kCauseStoreAccessFault : rv::kCauseLoadAccessFault);
  if (!f.store && !r.fault) {
    r.value = Ops::value(w.core.reg(a2));
    r.tag = Ops::tag(w.core.reg(a2));
  }
  r.summary_hits = w.core.stats().load_summary_hits - hits;
  r.lub_calls = g.lub_calls - lubs;
  r.flow_checks = testutil::flow_checks(w.core) - checks;
  r.bus = w.bus.transactions() - bus;
  r.records = new_records(recs);
  return r;
}

/// The same access as a payload through the bus; value and tag assembled as
/// an initiator of the payload interface does (uniform hint, else the LUB of
/// the tag lanes in order).
template <typename W>
Outcome run_payload(World<W>& w, const Form& f, std::uint32_t addr,
                    std::uint32_t value, Tag tag) {
  const auto& g = dift::detail::g_active;
  const std::uint64_t lubs = g.lub_calls, checks = testutil::flow_checks(w.core),
                      bus = w.bus.transactions();
  const std::size_t recs = record_count();
  std::uint8_t buf[4] = {};
  Tag tags[4] = {};
  tlmlite::Payload p;
  p.command = f.store ? tlmlite::Command::kWrite : tlmlite::Command::kRead;
  p.address = addr;
  p.data = buf;
  p.tags = World<W>::kTagged ? tags : nullptr;
  p.length = f.size;
  if (f.store) {
    for (std::uint32_t i = 0; i < f.size; ++i) {
      buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
      tags[i] = tag;
    }
    p.set_tag_summary(tag);
  }
  sysc::Time d;
  w.bus.transport(p, d);
  Outcome r;
  r.fault = !p.ok();
  if (!f.store && !r.fault) {
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < f.size; ++i) v |= std::uint32_t(buf[i]) << (8 * i);
    r.value = extend(v, f);
    if (World<W>::kTagged) {
      if (p.tags_uniform()) {
        r.tag = static_cast<Tag>(p.tag_summary);
        r.summary_hits = 1;
      } else {
        r.tag = tags[0];
        for (std::uint32_t i = 1; i < f.size; ++i) r.tag = dift::lub(r.tag, tags[i]);
      }
    }
  }
  r.lub_calls = g.lub_calls - lubs;
  r.flow_checks = testutil::flow_checks(w.core) - checks;
  r.bus = w.bus.transactions() - bus;
  r.records = new_records(recs);
  return r;
}

/// Drives every form at every probed offset of every device on a core world
/// and a payload world, comparing each access and the states after it.
template <typename W>
void compare_core_with_payload(World<W>& core_w, World<W>& pay_w,
                               const std::vector<Tag>& tags) {
  const rvasm::Program prog = access_program();
  core_w.ram.load_image(prog, kRamBase);
  std::uint32_t seed = 0x2545f491u;
  std::size_t n = 0;
  for (const Probe& dev : probes()) {
    for (const std::uint64_t off : offsets(dev)) {
      for (const Form& f : kForms) {
        seed = seed * 1664525u + 1013904223u;
        // Every third store writes 1 (CTRL registers act on it).
        const std::uint32_t value = n % 3 == 0 ? 1u : seed;
        const Tag tag = tags[n % tags.size()];
        ++n;
        const auto addr = static_cast<std::uint32_t>(dev.base + off);
        SCOPED_TRACE(::testing::Message() << dev.name << " +0x" << std::hex << off
                                          << ' ' << f.label << " value " << value
                                          << " tag " << std::dec << +tag);
        const Outcome want = run_payload(pay_w, f, addr, value, tag);
        const Outcome got = run_core(core_w, prog, f, addr, value, tag);
        ASSERT_EQ(got, want);
        ASSERT_EQ(want.bus, 1u);
        ASSERT_EQ(core_w.state(), pay_w.state());
      }
    }
  }
}

class RegisterEntry : public ::testing::Test {
 protected:
  dift::Lattice lattice_ = dift::Lattice::powerset({"a", "b", "c"});
  Tag ta_ = lattice_.tag_of("{a}"), tb_ = lattice_.tag_of("{b}"),
      tc_ = lattice_.tag_of("{c}");

  /// Live classes and clearances (the VP+ side of a policy).
  void configure(World<rv::TaintedWord>& w) const {
    w.uart.set_input_tag(tb_);
    w.uart.set_output_clearance(ta_);
    w.can.set_input_tag(tc_);
    w.can.set_output_clearance(ta_);
    w.gpio.set_input_tag(tc_);
    w.gpio.set_output_clearance(ta_);
    w.aes.set_unit_clearance(lattice_.lub(ta_, tb_));
  }
};

TEST_F(RegisterEntry, TaggedCoreMatchesPayloadOnEveryRegister) {
  dift::DiftContext ctx(lattice_);
  ctx.set_monitor_mode(true);  // violations become comparable records
  World<rv::TaintedWord> core_w, pay_w;
  configure(core_w);
  configure(pay_w);
  compare_core_with_payload(core_w, pay_w, {kBottomTag, ta_, tb_, tc_});
  // The run exercised the interesting paths on both sides.
  EXPECT_GT(core_w.core.stats().load_summary_hits, 0u);
  EXPECT_GT(ctx.lub_calls(), 0u);
  EXPECT_FALSE(ctx.recorded().empty());
  EXPECT_GT(core_w.aes.encryptions(), 0u);
  EXPECT_GT(core_w.can.frames_sent(), 0u);
}

TEST_F(RegisterEntry, PlainCoreMatchesUntaggedPayload) {
  // The plain VP: no context, untracked tags. Output clearances that only
  // tracked data can trip stay configured and must stay silent.
  World<rv::PlainWord> core_w, pay_w;
  for (auto* w : {&core_w, &pay_w}) {
    w->uart.set_input_tag(tb_);
    w->uart.set_output_clearance(ta_);
    w->gpio.set_output_clearance(ta_);
  }
  compare_core_with_payload(core_w, pay_w, {kBottomTag});
  EXPECT_FALSE(core_w.uart.output().empty());
}

TEST_F(RegisterEntry, WidePayloadsSplitIntoRegisterAccesses) {
  // Eight-byte payloads exist only on the payload side (DMA bursts, host
  // pokes): a byte window is served in 4-byte pieces, any other offset as
  // one register access whose bytes beyond four read as zero.
  dift::DiftContext ctx(lattice_);
  ctx.set_monitor_mode(true);
  World<rv::TaintedWord> pay_w, reg_w;
  configure(pay_w);
  configure(reg_w);
  std::uint32_t seed = 7;
  for (std::size_t k = 0; k < probes().size(); ++k) {
    const Probe& dev = probes()[k];
    tlmlite::RegisterTarget* regs = reg_w.devices()[k];
    for (const std::uint64_t off : offsets(dev)) {
      if (off + 8 > dev.size) continue;  // the bus refuses these before the device
      for (const bool store : {true, false}) {
        SCOPED_TRACE(::testing::Message() << dev.name << " +0x" << std::hex << off
                                          << (store ? " write" : " read"));
        seed = seed * 1664525u + 1013904223u;
        const Tag tag = seed % 2 ? ta_ : tb_;
        std::uint8_t buf[8];
        Tag tags[8];
        for (int i = 0; i < 8; ++i) {
          buf[i] = static_cast<std::uint8_t>(seed >> (i % 4 * 8));
          tags[i] = tag;
        }
        tlmlite::Payload p;
        p.command = store ? tlmlite::Command::kWrite : tlmlite::Command::kRead;
        p.address = dev.base + off;
        p.data = buf;
        p.tags = tags;
        p.length = 8;
        sysc::Time d;
        pay_w.bus.transport(p, d);

        std::uint32_t lo = 0, hi = 0;
        std::memcpy(&lo, buf, 4);
        std::memcpy(&hi, buf + 4, 4);
        if (regs->byte_window(off, 8)) {
          if (store) {
            const auto r1 = regs->write(off, 4, lo, tag);
            const auto r2 = r1 == tlmlite::Response::kOk
                                ? regs->write(off + 4, 4, hi, tag) : r1;
            EXPECT_EQ(p.response, r2);
          } else {
            const auto r1 = regs->read(off, 4);
            const auto r2 = regs->read(off + 4, 4);
            ASSERT_EQ(p.response, r1.ok() ? r2.response : r1.response);
            if (p.ok()) {
              EXPECT_EQ(lo, r1.value);
              EXPECT_EQ(hi, r2.value);
              for (std::uint32_t i = 0; i < 4; ++i) {
                EXPECT_EQ(tags[i], r1.tag(i));
                EXPECT_EQ(tags[4 + i], r2.tag(i));
              }
            }
          }
        } else if (store) {
          EXPECT_EQ(p.response, regs->write(off, 8, lo, tag));
        } else {
          const auto r = regs->read(off, 8);
          ASSERT_EQ(p.response, r.response);
          if (p.ok()) {
            EXPECT_EQ(lo, r.value);
            EXPECT_EQ(hi, 0u);
            for (std::uint32_t i = 0; i < 8; ++i)
              EXPECT_EQ(tags[i], r.tag(i < 4 ? i : 0));
          }
        }
        ASSERT_EQ(pay_w.state(), reg_w.state());
      }
    }
  }
}

TEST_F(RegisterEntry, MixedTagPayloadKeepsPerByteTagsInWindows) {
  // A DMA burst's lanes may carry different tags; byte windows keep each.
  dift::DiftContext ctx(lattice_);
  World<rv::TaintedWord> w;
  const std::uint64_t windows[] = {am::kCanBase + soc::CanPeriph::kTxData,
                                   am::kSensorBase + 8,
                                   am::kAesBase + soc::AesPeriph::kKey + 4};
  for (const std::uint64_t addr : windows) {
    SCOPED_TRACE(::testing::Message() << std::hex << addr);
    std::uint8_t buf[4] = {1, 2, 3, 4};
    Tag tags[4] = {ta_, tb_, tc_, kBottomTag};
    tlmlite::Payload p;
    p.command = tlmlite::Command::kWrite;
    p.address = addr;
    p.data = buf;
    p.tags = tags;
    p.length = 4;
    sysc::Time d;
    w.bus.transport(p, d);
    ASSERT_TRUE(p.ok());
  }
  const auto s = w.can.save_state();
  EXPECT_EQ(s.tx_tags[0], ta_);
  EXPECT_EQ(s.tx_tags[1], tb_);
  EXPECT_EQ(s.tx_tags[2], tc_);
  EXPECT_EQ(s.tx_tags[3], kBottomTag);
  EXPECT_EQ(s.tx.data[2], 3);
  const auto frame = w.sensor.save_state().frame;
  EXPECT_EQ(frame[8].tag(), ta_);
  EXPECT_EQ(frame[10].tag(), tc_);
  EXPECT_EQ(frame[11].value(), 4);
  const auto aes = w.aes.save_state();
  EXPECT_EQ(aes.key_tags[5], tb_);
  EXPECT_EQ(aes.key[6], 3);
  // The CPU's LUB over a mixed word of the window.
  const tlmlite::RegRead r = w.bus.read(am::kCanBase + soc::CanPeriph::kTxData, 4);
  EXPECT_FALSE(r.uniform);
  EXPECT_EQ(r.tag(1), tb_);
  EXPECT_EQ(r.value, 0x04030201u);
}

// ---------------------------------------------------------------------------
// Peripheral clearance violations carry the bus address of the register.
// ---------------------------------------------------------------------------

class ViolationAddress : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSecret = kRamBase + 0x1000;

  dift::Lattice lattice_ = dift::Lattice::ifp1();
  Tag lc_ = lattice_.tag_of("LC"), hc_ = lattice_.tag_of("HC");

  enum class Sink { kUart, kCan, kAes };

  /// Loads the classified byte and writes it to UART TX, sends it in CAN TX
  /// data bytes 0 and 1, or encrypts under it as an AES key byte, then
  /// exits. "send" labels the store that trips the clearance.
  rvasm::Program program(Sink sink) const {
    rvasm::Assembler a(kRamBase);
    a.li(a0, static_cast<std::int64_t>(kSecret));
    a.lbu(a1, a0, 0);
    if (sink == Sink::kAes) {
      a.li(a2, static_cast<std::int64_t>(am::kAesBase));
      a.sb(a1, a2, static_cast<std::int32_t>(soc::AesPeriph::kKey));
      a.li(a3, 1);
      a.label("send");
      a.sw(a3, a2, static_cast<std::int32_t>(soc::AesPeriph::kCtrl));
    } else if (sink == Sink::kCan) {
      a.li(a2, static_cast<std::int64_t>(am::kCanBase));
      a.li(a3, 2);
      a.sw(a3, a2, static_cast<std::int32_t>(soc::CanPeriph::kTxDlc));
      a.sb(a1, a2, static_cast<std::int32_t>(soc::CanPeriph::kTxData));
      a.sb(a1, a2, static_cast<std::int32_t>(soc::CanPeriph::kTxData + 1));
      a.li(a3, 1);
      a.label("send");
      a.sw(a3, a2, static_cast<std::int32_t>(soc::CanPeriph::kTxCtrl));
    } else {
      a.li(a2, static_cast<std::int64_t>(am::kUartBase));
      a.label("send");
      a.sb(a1, a2, static_cast<std::int32_t>(soc::Uart::kTxData));
    }
    a.li(a2, static_cast<std::int64_t>(am::kSysCtrlBase));
    a.sw(zero, a2, static_cast<std::int32_t>(soc::SysCtrl::kExit));
    a.label("spin");
    a.j("spin");
    return a.assemble();
  }

  dift::SecurityPolicy policy() const {
    dift::SecurityPolicy p(lattice_);
    p.classify_memory(kSecret, 1, hc_);
    p.clear_output("uart0.tx", lc_);
    p.clear_output("can0.tx", lc_);
    p.clear_unit("aes0", lc_);
    return p;
  }

  /// Enforcement mode on a bare core: the exception itself.
  void expect_thrown(Sink sink, dift::ViolationKind kind,
                     std::uint64_t want_address, const char* where) {
    dift::DiftContext ctx(lattice_);
    World<rv::TaintedWord> w;
    const rvasm::Program prog = program(sink);
    w.ram.load_image(prog, kRamBase);
    w.ram.classify(kSecret - kRamBase, 1, hc_);
    w.uart.set_output_clearance(lc_);
    w.can.set_output_clearance(lc_);
    w.aes.set_unit_clearance(lc_);
    w.core.set_pc(static_cast<std::uint32_t>(prog.entry));
    try {
      w.core.run(100);
      FAIL() << "expected a clearance violation";
    } catch (const dift::PolicyViolation& v) {
      EXPECT_EQ(v.kind(), kind);
      EXPECT_EQ(v.address(), want_address);
      EXPECT_EQ(v.pc(), prog.symbol("send"));
      EXPECT_EQ(v.where(), where);
    }
  }

  /// Both modes through the VP+: the enforcement run stops at "send", the
  /// monitor run records every violation and exits.
  std::vector<dift::ViolationRecord> monitor_records(Sink sink) {
    const rvasm::Program prog = program(sink);
    const dift::SecurityPolicy pol = policy();
    vp::VpDift enforce;
    enforce.load(prog);
    enforce.apply_policy(pol);
    const vp::RunResult e = enforce.run(sysc::Time::ms(1));
    EXPECT_EQ(e.reason, vp::ExitReason::kViolation);
    EXPECT_EQ(e.violation_pc, prog.symbol("send"));

    vp::VpDift monitor;
    monitor.load(prog);
    monitor.apply_policy(pol);
    monitor.set_monitor_mode(true);
    const vp::RunResult m = monitor.run(sysc::Time::ms(1));
    EXPECT_EQ(m.reason, vp::ExitReason::kExit);
    for (const auto& r : m.recorded_violations) EXPECT_EQ(r.pc, prog.symbol("send"));
    return m.recorded_violations;
  }
};

TEST_F(ViolationAddress, UartTxReportsBusAddress) {
  expect_thrown(Sink::kUart, dift::ViolationKind::kOutputClearance,
                am::kUartBase + soc::Uart::kTxData, "uart0.tx");
  const auto recs = monitor_records(Sink::kUart);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].address, am::kUartBase + soc::Uart::kTxData);
  EXPECT_EQ(recs[0].where, "uart0.tx");
}

TEST_F(ViolationAddress, CanTxReportsBusAddressOfEachDataByte) {
  const std::uint64_t data = am::kCanBase + soc::CanPeriph::kTxData;
  expect_thrown(Sink::kCan, dift::ViolationKind::kOutputClearance, data,
                "can0.tx");
  const auto recs = monitor_records(Sink::kCan);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].address, data);
  EXPECT_EQ(recs[1].address, data + 1);
  EXPECT_EQ(recs[1].where, "can0.tx");
}

TEST_F(ViolationAddress, AesUnitClearanceReportsCtrlBusAddress) {
  const std::uint64_t ctrl = am::kAesBase + soc::AesPeriph::kCtrl;
  expect_thrown(Sink::kAes, dift::ViolationKind::kExecUnitClearance, ctrl,
                "aes0.engine");
  const auto recs = monitor_records(Sink::kAes);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].address, ctrl);
  EXPECT_EQ(recs[0].where, "aes0.engine");
}

TEST_F(ViolationAddress, PayloadKeepsBusAddressWhenTargetThrows) {
  // A DMA-style payload write of classified data to UART TX: the exception
  // names the register's bus address, and the payload's address is the bus
  // address again when the initiator catches it.
  dift::DiftContext ctx(lattice_);
  World<rv::TaintedWord> w;
  w.uart.set_output_clearance(lc_);
  std::uint8_t buf[4] = {'x', 0, 0, 0};
  Tag tags[4] = {hc_, hc_, hc_, hc_};
  tlmlite::Payload p;
  p.command = tlmlite::Command::kWrite;
  p.address = am::kUartBase + soc::Uart::kTxData;
  p.data = buf;
  p.tags = tags;
  p.length = 4;
  sysc::Time d;
  try {
    w.bus.transport(p, d);
    FAIL() << "expected an output-clearance violation";
  } catch (const dift::PolicyViolation& v) {
    EXPECT_EQ(v.address(), am::kUartBase + soc::Uart::kTxData);
  }
  EXPECT_EQ(p.address, am::kUartBase + soc::Uart::kTxData);
  EXPECT_TRUE(w.uart.output().empty());
}

// ---------------------------------------------------------------------------
// Exact per-run counters of the peripheral-bound benchmark firmware (the
// periph-io workload of vpbench), VP and VP+ under their live policies.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

struct Pinned {
  std::uint64_t instret, sim_ps, uart_bytes, uart_hash;
  std::uint64_t lub_calls, flow_checks, fetch_summary_hits, load_summary_hits,
      bus_transactions, plain_variant_hits, tainted_variant_hits,
      variant_promotions, chained_transfers, block_hits, block_misses;
};

void expect_pinned(const vp::RunResult& r, const Pinned& p) {
  EXPECT_EQ(r.reason, vp::ExitReason::kExit);
  EXPECT_EQ(r.exit_code, 0u);
  EXPECT_EQ(r.watchdog_resets, 0u);
  EXPECT_EQ(r.instret, p.instret);
  EXPECT_EQ(r.sim_time.picos(), p.sim_ps);
  EXPECT_EQ(r.uart_output.size(), p.uart_bytes);
  EXPECT_EQ(fnv1a(r.uart_output), p.uart_hash);
  const dift::DiftStats& s = r.stats;
  EXPECT_EQ(s.lub_calls, p.lub_calls);
  EXPECT_EQ(s.flow_checks, p.flow_checks);
  EXPECT_EQ(s.fetch_summary_hits, p.fetch_summary_hits);
  EXPECT_EQ(s.load_summary_hits, p.load_summary_hits);
  EXPECT_EQ(s.bus_transactions, p.bus_transactions);
  EXPECT_EQ(s.plain_variant_hits, p.plain_variant_hits);
  EXPECT_EQ(s.tainted_variant_hits, p.tainted_variant_hits);
  EXPECT_EQ(s.variant_promotions, p.variant_promotions);
  EXPECT_EQ(s.chained_transfers, p.chained_transfers);
  EXPECT_EQ(s.block_hits, p.block_hits);
  EXPECT_EQ(s.block_misses, p.block_misses);
  EXPECT_EQ(s.mem_summary_hits, 0u);
  EXPECT_EQ(s.dma_summary_hits, 0u);
}

template <typename VpT>
vp::RunResult run_fw(const rvasm::Program& prog, const vp::VpConfig& cfg,
                     const dift::SecurityPolicy* policy) {
  VpT v(cfg);
  v.load(prog);
  if constexpr (VpT::kTainted) v.apply_policy(*policy);
  return v.run(sysc::Time::sec(600));
}

TEST(PeriphIoCounters, SimpleSensorMatchesPinnedRuns) {
  const rvasm::Program prog = fw::make_simple_sensor(5000);
  vp::VpConfig cfg;
  cfg.sensor_period = sysc::Time::us(100);
  dift::PolicySpec spec = dift::PolicySpec::parse(
      "class LC\nclass HC\nflow LC -> HC\n"
      "classify input sensor0 HC\nclear output uart0.tx HC\n"
      "exec fetch HC\nexec branch HC\nexec memaddr HC\n",
      &prog.symbols);
  expect_pinned(run_fw<vp::Vp>(prog, cfg, nullptr),
                {1787853, 500000000000ull, 320000, 5196150320307365247ull, 0, 0, 0, 0,
                 645002, 0, 0, 0, 357814, 15000, 19});
  expect_pinned(run_fw<vp::VpDift>(prog, cfg, &spec.policy()),
                {1787853, 500000000000ull, 320000, 5196150320307365247ull, 0,
                 1335001, 1787853, 45000, 645002, 52834, 324999, 5000, 362813,
                 15000, 20});
}

TEST(PeriphIoCounters, ImmoFixedMatchesPinnedRuns) {
  const rvasm::Program prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump,
                                                   campaign::demo_pin(), 40);
  vp::VpConfig cfg;
  cfg.with_engine_ecu = true;
  cfg.engine_pin = campaign::demo_pin();
  cfg.engine_period = sysc::Time::ms(1);
  const campaign::ResolvedPolicy live =
      campaign::resolve_policy("immobilizer-per-byte", prog);
  expect_pinned(run_fw<vp::Vp>(prog, cfg, nullptr),
                {4014080, 40058880000ull, 0, 14695981039346656037ull, 0, 0, 0, 0,
                 801609, 0, 0, 0, 1207467, 886, 18});
  expect_pinned(run_fw<vp::VpDift>(prog, cfg, live.policy()),
                {4014080, 40058880000ull, 0, 14695981039346656037ull, 1240,
                 3210935, 4014080, 799129, 801609, 0, 1208371, 0, 1207467, 886,
                 18});
}

}  // namespace
