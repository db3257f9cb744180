// VP-level integration: construction, loading, run control, monitor mode,
// violation context, taint statistics.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fw/benchmarks.hpp"
#include "fw/hal.hpp"
#include "fw/immobilizer.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;

const soc::AesKey kPin = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

TEST(VpIntegration, AddressMapCoversAllPeripherals) {
  vp::Vp v;
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kRamBase), "ram0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kUartBase), "uart0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kClintBase), "clint0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kPlicBase), "plic0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kSensorBase), "sensor0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kAesBase), "aes0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kCanBase), "can0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kDmaBase), "dma0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kSysCtrlBase), "sysctrl0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kGpioBase), "gpio0");
  EXPECT_EQ(v.bus().port_at(soc::addrmap::kWdtBase), "wdt0");
  EXPECT_EQ(v.bus().mapping_count(), 11u);
}

TEST(VpIntegration, TimeoutReportedWhenFirmwareHangs) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  a.label("spin");
  a.j("spin");
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::ms(5));
  EXPECT_FALSE(r.exited());
  EXPECT_TRUE(r.timed_out());
  EXPECT_GT(r.instret, 0u);
  EXPECT_GE(r.sim_time, sysc::Time::ms(5));
}

TEST(VpIntegration, ExitCodePropagates) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.li(a0, 123);
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.exit_code, 123u);
}

TEST(VpIntegration, DefaultTrapHandlerMarksAndExits) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.insn(0xffffffff);  // illegal -> default trap handler
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.exit_code, 0xffu);
  EXPECT_EQ(r.markers, "T");
}

TEST(VpIntegration, ViolationCarriesFaultingPc) {
  // The UART raises the violation inside its transport; the core re-throws
  // with the program counter of the offending store attached.
  vp::VpDift v;
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kAttackDirectLeak, kPin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.violation());
  EXPECT_EQ(r.violation_where, "uart0.tx");
  EXPECT_GE(r.violation_pc, soc::addrmap::kRamBase);  // a real firmware pc
}

TEST(VpIntegration, MonitorModeRecordsAndContinues) {
  vp::VpConfig cfg;
  cfg.with_engine_ecu = true;
  cfg.engine_pin = kPin;
  cfg.engine_period = sysc::Time::ms(2);
  vp::VpDift v(cfg);
  const auto prog =
      fw::make_immobilizer(fw::ImmoVariant::kVulnerableDump, kPin, 3);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  v.set_monitor_mode(true);
  v.uart().feed_input("d");
  const auto r = v.run(sysc::Time::sec(5));
  EXPECT_FALSE(r.violation()) << "monitor mode must not stop the run";
  ASSERT_TRUE(r.exited());
  // The dump leaked the 16 PIN bytes (plus scratch area reads are benign):
  // one output-clearance record per confidential byte.
  std::size_t output_violations = 0;
  for (const auto& rec : r.recorded_violations)
    if (rec.kind == dift::ViolationKind::kOutputClearance) ++output_violations;
  EXPECT_GE(output_violations, 16u);
  // And the leak actually happened (monitoring, not enforcement):
  EXPECT_GT(r.uart_output.size(), 32u);
}

TEST(VpIntegration, MonitorModeCleanRunRecordsNothing) {
  vp::VpDift v;
  v.load(fw::make_primes(100));
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  v.set_monitor_mode(true);
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_TRUE(r.recorded_violations.empty());
}

TEST(VpIntegration, TagHistogramShowsClassifiedBytes) {
  vp::VpDift v;
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto hist = v.ram().tag_histogram();
  const dift::Tag hchi = bundle.lattice->tag_of("(HC,HI)");
  ASSERT_TRUE(hist.count(hchi));
  EXPECT_EQ(hist.at(hchi), 16u);  // exactly the PIN bytes
}

TEST(VpIntegration, PlainVpTracksNoTags) {
  vp::Vp v;
  EXPECT_FALSE(v.ram().tracks_tags());
  EXPECT_TRUE(v.ram().tag_histogram().empty());
}

TEST(VpIntegration, SequentialRunsResumeSimulation) {
  vp::VpConfig cfg;
  cfg.sensor_period = sysc::Time::us(200);
  vp::Vp v(cfg);
  v.load(fw::make_simple_sensor(10));
  auto r1 = v.run(sysc::Time::us(700));  // not enough for 10 frames
  EXPECT_TRUE(r1.timed_out());
  auto r2 = v.run(sysc::Time::sec(10));  // resume to completion
  EXPECT_TRUE(r2.exited());
  EXPECT_EQ(r2.exit_code, 0u);
}

TEST(VpIntegration, UartInputReachableAcrossRuns) {
  rvasm::Assembler a(soc::addrmap::kRamBase);
  fw::emit_crt0(a);
  a.label("main");
  a.addi(sp, sp, -16);
  a.sw(ra, sp, 12);
  a.call("uart_getc");
  a.call("uart_putc");  // echo
  a.li(a0, 0);
  a.lw(ra, sp, 12);
  a.addi(sp, sp, 16);
  a.ret();
  fw::emit_stdlib(a);
  vp::Vp v;
  v.load(a.assemble());
  v.uart().feed_input("Q");
  const auto r = v.run(sysc::Time::sec(1));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.uart_output, "Q");
}

}  // namespace

namespace {

using namespace vpdift;

// Architectural checkpoint: branch a run into two futures.
TEST(VpSnapshot, RestoreReplaysToTheSameResult) {
  vp::Vp v;
  v.load(fw::make_primes(5000));
  auto r1 = v.run(sysc::Time::us(500));  // stop mid-computation
  ASSERT_TRUE(r1.timed_out());
  const auto snap = v.snapshot();
  const auto r2 = v.run(sysc::Time::sec(10));  // future A: run to completion
  ASSERT_TRUE(r2.exited());
  EXPECT_EQ(r2.exit_code, 0u);

  // Future B: a fresh VP restored from the checkpoint completes identically.
  vp::Vp w;
  w.load(fw::make_primes(5000));
  w.restore(snap);
  const auto r3 = w.run(sysc::Time::sec(10));
  ASSERT_TRUE(r3.exited());
  EXPECT_EQ(r3.exit_code, 0u);
  // Both futures retired the same number of instructions from the snapshot.
  EXPECT_EQ(w.core().instret(), v.core().instret());
}

TEST(VpSnapshot, CapturesTagsOnTheDiftVp) {
  vp::VpDift v;
  const soc::AesKey pin = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, pin, 1);
  v.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  v.apply_policy(bundle.policy);
  const auto snap = v.snapshot();
  const auto pin_off = prog.symbol("pin") - soc::addrmap::kRamBase;
  const auto hchi = bundle.lattice->tag_of("(HC,HI)");
  EXPECT_EQ(snap.ram_tags.at(pin_off), hchi);

  // Wipe the tag plane, restore, verify classification came back.
  v.ram().classify(pin_off, 16, dift::kBottomTag);
  EXPECT_EQ(v.ram().tag_at(pin_off), dift::kBottomTag);
  v.restore(snap);
  EXPECT_EQ(v.ram().tag_at(pin_off), hchi);
}

TEST(VpSnapshot, SizeMismatchRejected) {
  vp::Vp v;
  vp::Vp::Snapshot bogus;
  bogus.ram = soc::SparsePlane(16);  // a 16-byte plane against 4 MiB of RAM
  EXPECT_THROW(v.restore(bogus), std::invalid_argument);
}

// Bugfix regression: a restored VP must not run stale translations. Both
// programs below share a bit-identical loop head; its cached translation
// carries a chain pointer to the (different) `func` body, so a chained
// entry into `func` must not trust the old micro-ops.
TEST(VpSnapshot, RestoreInvalidatesStaleTranslations) {
  auto make_looper = [](std::int64_t n) {
    rvasm::Assembler a(soc::addrmap::kRamBase);
    a.label("loop");
    a.call("func");
    a.j("loop");
    a.label("func");
    a.li(a0, n);
    a.ret();
    return a.assemble();
  };

  vp::Vp v;
  v.load(make_looper(1));
  (void)v.run(sysc::Time::us(200));  // hot, chained translations of func #1
  EXPECT_EQ(v.core().reg(10), 1u);

  vp::Vp donor;
  donor.load(make_looper(2));
  const auto snap = donor.snapshot();

  v.restore(snap);
  (void)v.run(sysc::Time::us(200));
  EXPECT_EQ(v.core().reg(10), 2u);  // a stale translation would leave 1
}

// Bugfix regression: restoring a snapshot WITHOUT a tag plane (taken on a
// plain VP) into a DIFT VP must clear every tag to kBottomTag and rebuild
// the shadow summary to match — not silently keep the old classification.
TEST(VpSnapshot, PlainSnapshotClearsDiftTagPlane) {
  const auto prog = fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);

  vp::Vp plain;
  plain.load(prog);
  const auto snap = plain.snapshot();
  EXPECT_TRUE(snap.ram_tags.empty());

  vp::VpDift d;
  d.load(prog);
  auto bundle = vp::scenarios::make_immobilizer_policy(prog, false);
  d.apply_policy(bundle.policy);
  const auto pin_off = prog.symbol("pin") - soc::addrmap::kRamBase;
  ASSERT_NE(d.ram().tag_at(pin_off), dift::kBottomTag);

  d.restore(snap);
  EXPECT_EQ(d.ram().tag_at(pin_off), dift::kBottomTag);
  // The summary must agree with the cleared plane (uniform bottom), or the
  // fast path would keep serving the stale classification.
  dift::Tag t = 0xff;
  EXPECT_TRUE(d.ram().shadow().uniform(pin_off, 16, &t));
  EXPECT_EQ(t, dift::kBottomTag);
  EXPECT_TRUE(d.ram().shadow().all_bottom());
}

constexpr std::size_t kPage = soc::SparsePlane::kPageBytes;

/// The full plane a sparse copy stands for.
std::vector<std::uint8_t> expand(const soc::SparsePlane& p) {
  std::vector<std::uint8_t> out(p.plane_size(), 0);
  for (std::size_t i = 0; i < p.pages().size(); ++i) {
    const std::size_t off = p.pages()[i] * kPage;
    std::copy_n(p.held_page(i), std::min(kPage, out.size() - off),
                out.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return out;
}

/// Every block summary equals a fresh rescan of its block: exact, not just
/// conservative.
void expect_summary_exact(soc::Memory& ram) {
  dift::ShadowSummary& s = ram.shadow();
  for (std::size_t b = 0; b < s.block_count(); ++b) {
    const std::uint16_t summary = s.block_summary(b);
    ASSERT_EQ(s.rescan_block(b), summary) << "block " << b;
  }
}

/// An immobilizer VP+ under its policy (the PIN is classified), started and
/// run for a while.
struct RunImmobilizer {
  rvasm::Program prog =
      fw::make_immobilizer(fw::ImmoVariant::kFixedDump, kPin, 1);
  vp::scenarios::PolicyBundle bundle =
      vp::scenarios::make_immobilizer_policy(prog, false);
  vp::VpDift v;
  RunImmobilizer() {
    v.load(prog);
    v.apply_policy(bundle.policy);
  }
};

// Restoring into a started VP: bytes and tags dirtied on pages the snapshot
// does not hold must come back zero / ⊥, and every summary must be exact.
TEST(VpSnapshot, RestoreIntoAStartedVpClearsPagesOutsideTheSnapshot) {
  RunImmobilizer r;
  const auto snap = r.v.snapshot();
  ASSERT_FALSE(snap.ram_tags.empty());  // the classified PIN
  (void)r.v.run(sysc::Time::ms(2));

  const std::size_t mid = r.v.ram().size() / 2;
  const auto& held = snap.ram.pages();
  ASSERT_EQ(std::count(held.begin(), held.end(), mid / kPage), 0);
  r.v.ram().write_u32(mid, 0xdeadbeef);
  r.v.ram().classify(mid + 3, 3 * dift::ShadowSummary::kBlockBytes,
                     r.bundle.lattice->tag_of("(HC,HI)"));
  // And clear the whole blocks around the PIN, whose tag page the snapshot
  // does hold: their summaries drop to ⊥, and the restore must bring them
  // back.
  constexpr std::size_t kB = dift::ShadowSummary::kBlockBytes;
  const std::size_t pin_off = r.prog.symbol("pin") - soc::addrmap::kRamBase;
  const std::size_t b0 = pin_off & ~(kB - 1);
  const std::size_t b1 = (pin_off + 16 + kB - 1) & ~(kB - 1);
  r.v.ram().classify(b0, b1 - b0, dift::kBottomTag);

  r.v.restore(snap);
  EXPECT_EQ(r.v.ram().read_u32(mid), 0u);
  EXPECT_EQ(r.v.ram().tag_at(mid + 3), dift::kBottomTag);
  const std::size_t n = r.v.ram().size();
  EXPECT_TRUE(std::equal(r.v.ram().data(), r.v.ram().data() + n,
                         expand(snap.ram).begin()));
  EXPECT_TRUE(std::equal(r.v.ram().tags(), r.v.ram().tags() + n,
                         expand(snap.ram_tags).begin()));
  expect_summary_exact(r.v.ram());
}

TEST(VpSnapshot, ResetLeavesZeroRamBottomTagsAndExactSummaries) {
  RunImmobilizer r;
  (void)r.v.run(sysc::Time::ms(2));
  ASSERT_FALSE(r.v.ram().shadow().all_bottom());
  r.v.reset();
  const std::size_t n = r.v.ram().size();
  EXPECT_TRUE(std::all_of(r.v.ram().data(), r.v.ram().data() + n,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(r.v.ram().tags(), r.v.ram().tags() + n,
                          [](dift::Tag t) { return t == dift::kBottomTag; }));
  EXPECT_TRUE(r.v.ram().shadow().all_bottom());
  expect_summary_exact(r.v.ram());
  const auto snap = r.v.snapshot();
  EXPECT_TRUE(snap.ram.empty());
  EXPECT_TRUE(snap.ram_tags.empty());
}

// The point of the sparse representation: a fork-site snapshot of a Table
// II kernel costs kilobytes, not RAM + tag plane (8 MiB).
TEST(VpSnapshot, MidRunQsortSnapshotHoldsAtMost64KiB) {
  const auto prog = fw::make_qsort(5000, 1);
  auto bundle = vp::scenarios::make_permissive_policy();
  auto make = [&] {
    auto v = std::make_unique<vp::VpDift>();
    v->load(prog);
    v->apply_policy(bundle.policy);
    return v;
  };
  const std::uint64_t instret = make()->run(sysc::Time::sec(60)).instret;
  auto v = make();
  vp::VpSnapshot snap;
  v->core().arm_fault(instret / 2, [&](rv::Core<rv::TaintedWord>&) {
    snap = v->snapshot();
  });
  const auto golden = v->run(sysc::Time::sec(60));
  ASSERT_TRUE(golden.exited());
  ASSERT_EQ(snap.instret, instret / 2);
  EXPECT_FALSE(snap.ram.empty());
  EXPECT_LE(snap.ram.size() + snap.ram_tags.size(), 64u * 1024);

  // And it still forks: the tail from the sparse snapshot ends like the
  // golden run.
  auto w = make();
  w->restore(snap);
  const auto tail = w->run(sysc::Time::sec(60));
  ASSERT_TRUE(tail.exited());
  EXPECT_EQ(tail.exit_code, golden.exit_code);
  EXPECT_EQ(tail.uart_output, golden.uart_output);
  EXPECT_EQ(w->core().instret(), v->core().instret());
}

}  // namespace
