// The core's execution clearances, resolved into per-class admit rows by
// Core::set_policy().
//
// CoreClearance: every fetch, branch and memory-address decision equals the
// lattice's allowed_flow, records name the same kind, pc and address, each
// check counts flow_checks once, a warm VP re-armed with a stricter policy
// refuses where a fresh one does, and the taint-liveness gate makes the same
// variant decisions around tainted, bus-fetched and plain dispatches.
// SensorDataTag: the sensor's DATA_TAG register refuses classes outside the
// active lattice, and its conversion check names the register.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dift/context.hpp"
#include "dift/lattice.hpp"
#include "dift/policy.hpp"
#include "fw/hal.hpp"
#include "micro_vm.hpp"
#include "rv/csr.hpp"
#include "rvasm/assembler.hpp"
#include "soc/addrmap.hpp"
#include "soc/sensor.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using dift::kBottomTag;
using dift::Tag;
using dift::ViolationKind;
namespace am = soc::addrmap;

using TaintVm = testutil::MicroVm<rv::TaintedWord>;
using testutil::flow_checks;

struct Rec {
  ViolationKind kind;
  std::uint64_t pc, address;
  Tag source, required;
  bool operator==(const Rec&) const = default;
};

std::ostream& operator<<(std::ostream& o, const Rec& r) {
  return o << "{" << dift::to_string(r.kind) << " pc " << std::hex << r.pc
           << " addr " << r.address << std::dec << " " << +r.source << "->"
           << +r.required << "}";
}

std::vector<Rec> records_since(const dift::DiftContext& ctx, std::size_t from) {
  std::vector<Rec> out;
  for (std::size_t i = from; i < ctx.recorded().size(); ++i) {
    const auto& r = ctx.recorded()[i];
    out.push_back({r.kind, r.pc, r.address, r.source, r.required});
  }
  return out;
}

/// One block of four checked instructions, all of whose checked operands
/// carry the class under test: a0 (load/store address), a2 (branch
/// condition) and a3 (jump target). The 64-byte code block is classified
/// with the class too, so the fetch checks see it.
struct Probe {
  static constexpr std::uint32_t kData = TaintVm::kBase + 0x1000;
  static constexpr std::uint32_t kTarget = TaintVm::kBase + 0x100;

  rvasm::Program prog;
  std::uint32_t pc_lw = 0, pc_sw = 0, pc_beq = 0, pc_jalr = 0;

  Probe() {
    rvasm::Assembler a(TaintVm::kBase);
    a.label("lw");
    a.lw(a1, a0, 0);
    a.label("sw");
    a.sw(a1, a0, 4);
    a.label("beq");
    a.beq(a2, a2, "jalr");
    a.label("jalr");
    a.jalr(zero, a3, 0);
    a.org(kTarget);
    a.label("target");
    a.j("target");
    prog = a.assemble();
    pc_lw = static_cast<std::uint32_t>(prog.symbol("lw"));
    pc_sw = static_cast<std::uint32_t>(prog.symbol("sw"));
    pc_beq = static_cast<std::uint32_t>(prog.symbol("beq"));
    pc_jalr = static_cast<std::uint32_t>(prog.symbol("jalr"));
  }

  /// Runs the block once with class `t` on `vm`, whose core holds the policy.
  void run(TaintVm& vm, Tag t) const {
    vm.core.reset(TaintVm::kBase);
    vm.ram.classify(0, 64, t);
    vm.core.set_reg(a0, dift::Taint<std::uint32_t>(kData, t));
    vm.core.set_reg(a2, dift::Taint<std::uint32_t>(1, t));
    vm.core.set_reg(a3, dift::Taint<std::uint32_t>(kTarget, t));
    vm.core.run(4);
  }
};

using Clr = std::optional<Tag>;

/// Every clearance setting of one unit: unset, then each class.
std::vector<Clr> settings(const dift::Lattice& l) {
  std::vector<Clr> out{std::nullopt};
  for (std::size_t c = 0; c < l.size(); ++c) out.push_back(static_cast<Tag>(c));
  return out;
}

void expect_decisions_match(const dift::Lattice& l) {
  dift::DiftContext ctx(l);
  ctx.set_monitor_mode(true);
  dift::SecurityPolicy policy(l);
  TaintVm vm;
  const Probe p;
  vm.load(p.prog);
  for (const Clr cf : settings(l))
    for (const Clr cb : settings(l))
      for (const Clr cm : settings(l)) {
        policy.set_execution_clearance({cf, cb, cm});
        vm.core.set_policy(&policy);
        for (std::size_t ti = 0; ti < l.size(); ++ti) {
          const auto t = static_cast<Tag>(ti);
          SCOPED_TRACE(::testing::Message()
                       << "class " << +t << " fetch " << (cf ? +*cf : -1)
                       << " branch " << (cb ? +*cb : -1) << " memaddr "
                       << (cm ? +*cm : -1));
          const auto refused = [&](Clr c) { return c && !l.allowed_flow(t, *c); };
          const auto counted = [&](Clr c) { return c && t != *c ? 1u : 0u; };
          // A ⊥ class under clearances that all admit ⊥ runs the plain
          // variant, which elides its (always-allowed) checks but the
          // terminator's: jalr runs its full handler in both variants.
          const bool plain = t == kBottomTag && !refused(cf) && !refused(cb) &&
                             !refused(cm);
          std::vector<Rec> want;
          std::uint64_t want_checks = counted(cb);
          if (!plain) {
            const auto fetch = [&](std::uint32_t pc) {
              if (refused(cf)) want.push_back({ViolationKind::kFetchClearance, pc, pc, t, *cf});
            };
            fetch(p.pc_lw);
            if (refused(cm))
              want.push_back({ViolationKind::kMemAddrClearance, p.pc_lw, Probe::kData, t, *cm});
            fetch(p.pc_sw);
            if (refused(cm))
              want.push_back({ViolationKind::kMemAddrClearance, p.pc_sw, Probe::kData + 4, t, *cm});
            fetch(p.pc_beq);
            if (refused(cb))
              want.push_back({ViolationKind::kBranchClearance, p.pc_beq, 0, t, *cb});
            fetch(p.pc_jalr);
            if (refused(cb))
              want.push_back({ViolationKind::kBranchClearance, p.pc_jalr, Probe::kTarget, t, *cb});
            // Fetch: the block span once, then each instruction once when
            // the span is refused.
            want_checks += counted(cf) * (refused(cf) ? 5u : 1u) +
                           2 * counted(cm) + counted(cb);
          }
          const std::size_t recs = ctx.recorded().size();
          const std::uint64_t checks = flow_checks(vm.core);
          p.run(vm, t);
          EXPECT_EQ(vm.core.pc(), Probe::kTarget);
          EXPECT_EQ(records_since(ctx, recs), want);
          EXPECT_EQ(flow_checks(vm.core) - checks, want_checks);
        }
      }
}

TEST(CoreClearance, DecisionMatchesLatticeIfp1) {
  expect_decisions_match(dift::Lattice::ifp1());
}

TEST(CoreClearance, DecisionMatchesLatticeIfp2) {
  expect_decisions_match(dift::Lattice::ifp2());
}

TEST(CoreClearance, DecisionMatchesLatticeIfp3Product) {
  expect_decisions_match(dift::Lattice::ifp3());
}

// The trap vector and mret's return address are checked against the branch
// clearance too.
TEST(CoreClearance, TrapVectorAndMretFollowTheBranchRow) {
  const dift::Lattice l = dift::Lattice::ifp3();
  dift::DiftContext ctx(l);
  ctx.set_monitor_mode(true);
  rvasm::Assembler a(TaintVm::kBase);
  a.label("ecall");
  a.ecall();
  a.org(TaintVm::kBase + 0x100);
  a.label("handler");
  a.mret();
  const rvasm::Program prog = a.assemble();
  const auto pc_ecall = prog.symbol("ecall");
  const auto handler = prog.symbol("handler");
  dift::SecurityPolicy policy(l);
  TaintVm vm;
  vm.load(prog);
  for (const Clr cb : settings(l))
    for (std::size_t ti = 0; ti < l.size(); ++ti) {
      const auto t = static_cast<Tag>(ti);
      SCOPED_TRACE(::testing::Message() << "class " << +t << " branch "
                                        << (cb ? +*cb : -1));
      policy.set_execution_clearance({std::nullopt, cb, std::nullopt});
      vm.core.set_policy(&policy);
      vm.core.reset(TaintVm::kBase);
      vm.core.csrs().mtvec = {static_cast<std::uint32_t>(handler), t};
      // mret returns to the ecall; mepc takes the class of the CSR write.
      const std::size_t recs = ctx.recorded().size();
      const std::uint64_t checks = flow_checks(vm.core);
      vm.core.run(1);  // ecall: the trap checks mtvec
      vm.core.csrs().mepc.tag = t;
      vm.core.run(1);  // mret: checks mepc
      std::vector<Rec> want;
      const bool refused = cb && !l.allowed_flow(t, *cb);
      if (refused) {
        want.push_back({ViolationKind::kBranchClearance, pc_ecall, handler, t, *cb});
        want.push_back({ViolationKind::kBranchClearance, handler, pc_ecall, t, *cb});
      }
      EXPECT_EQ(records_since(ctx, recs), want);
      EXPECT_EQ(flow_checks(vm.core) - checks, cb && t != *cb ? 2u : 0u);
      EXPECT_EQ(vm.core.pc(), pc_ecall);
    }
}

// Enforcement mode: the refused check throws having counted itself once.
TEST(CoreClearance, RefusalCountsOnce) {
  const dift::Lattice l = dift::Lattice::ifp1();
  const Tag lc = l.tag_of("LC"), hc = l.tag_of("HC");
  dift::DiftContext ctx(l);
  const Probe p;
  struct Case {
    const char* name;
    dift::ExecutionClearance ec;
    ViolationKind kind;
    std::uint32_t pc;
    std::uint64_t checks;
  };
  // The refused fetch is the span test plus the first instruction's check,
  // one count each; mem-addr and branch refuse at their first check.
  const Case cases[] = {
      {"fetch", {lc, std::nullopt, std::nullopt}, ViolationKind::kFetchClearance, p.pc_lw, 2},
      {"memaddr", {std::nullopt, std::nullopt, lc}, ViolationKind::kMemAddrClearance, p.pc_lw, 1},
      {"branch", {std::nullopt, lc, std::nullopt}, ViolationKind::kBranchClearance, p.pc_beq, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    dift::SecurityPolicy policy(l);
    policy.set_execution_clearance(c.ec);
    TaintVm vm;
    vm.load(p.prog);
    vm.core.set_policy(&policy);
    const std::uint64_t checks = flow_checks(vm.core);
    try {
      p.run(vm, hc);
      ADD_FAILURE() << "expected a clearance violation";
    } catch (const dift::PolicyViolation& v) {
      EXPECT_EQ(v.kind(), c.kind);
      EXPECT_EQ(v.pc(), c.pc);
      EXPECT_EQ(v.source(), hc);
      EXPECT_EQ(v.required(), lc);
    }
    EXPECT_EQ(flow_checks(vm.core) - checks, c.checks);
    EXPECT_EQ(vm.core.stats().flow_checks, c.checks);  // all of them the core's
  }
}

// A class at or above the lattice size is refused by every set clearance
// (and admitted by an unset one), without reading past the lattice.
TEST(CoreClearance, ClassOutsideTheLatticeIsRefused) {
  const dift::Lattice l = dift::Lattice::ifp1();
  const Tag hc = l.tag_of("HC");
  dift::DiftContext ctx(l);
  ctx.set_monitor_mode(true);
  const Probe p;
  const Tag outside = 0x41;
  dift::SecurityPolicy policy(l);
  policy.set_execution_clearance({std::nullopt, std::nullopt, hc});
  TaintVm vm;
  vm.load(p.prog);
  vm.core.set_policy(&policy);
  vm.core.reset(TaintVm::kBase);
  vm.core.set_reg(a0, dift::Taint<std::uint32_t>(Probe::kData, outside));
  vm.core.run(2);  // lw, sw
  const std::vector<Rec> want = {
      {ViolationKind::kMemAddrClearance, p.pc_lw, Probe::kData, outside, hc},
      {ViolationKind::kMemAddrClearance, p.pc_sw, Probe::kData + 4, outside, hc}};
  EXPECT_EQ(records_since(ctx, 0), want);
  EXPECT_EQ(vm.core.stats().flow_checks, 2u);
}

// ---------------------------------------------------------------------------
// Warm re-arm: a VP that ran under a weak policy and is re-armed with a
// stricter one (translations kept) refuses exactly where a fresh VP does.
// ---------------------------------------------------------------------------

struct Strict {
  const char* name;
  dift::ExecutionClearance ec;
  bool classify_code;
};

TEST(CoreClearance, WarmReArmRefusesLikeAFreshVp) {
  const dift::Lattice l = dift::Lattice::ifp1();
  const Tag lc = l.tag_of("LC"), hc = l.tag_of("HC");
  constexpr std::uint32_t kSecret = am::kRamBase + 0x2000;
  constexpr std::uint32_t kTable = am::kRamBase + 0x3000;
  // Uses the classified word as an offset (mem-addr), as a branch condition
  // and as an indirect-jump target offset, then exits.
  rvasm::Assembler a(am::kRamBase);
  a.li(s0, 20);
  a.label("loop");
  a.li(a0, kSecret);
  a.lw(a1, a0, 0);
  a.andi(a1, a1, 4);
  a.li(a2, kTable);
  a.add(a2, a2, a1);
  a.label("load");
  a.lw(a3, a2, 0);
  a.label("branch");
  a.beq(a1, zero, "skip");
  a.nop();
  a.label("skip");
  a.addi(s0, s0, -1);
  a.bnez(s0, "loop");
  a.li(t0, fw::mmio::kSysExit);
  a.sw(zero, t0, 0);
  a.label("spin");
  a.j("spin");
  const rvasm::Program prog = a.assemble();

  const auto policy_for = [&](dift::ExecutionClearance ec, bool classify_code) {
    dift::SecurityPolicy p(l);
    p.classify_memory(kSecret, 4, hc);
    if (classify_code) p.classify_memory(am::kRamBase, 0x40, hc);
    p.set_execution_clearance(ec);
    return p;
  };
  const dift::SecurityPolicy weak =
      policy_for({hc, hc, hc}, /*classify_code=*/true);
  const Strict stricter[] = {
      {"fetch", {lc, std::nullopt, std::nullopt}, true},
      {"memaddr", {std::nullopt, std::nullopt, lc}, false},
      {"branch", {std::nullopt, lc, std::nullopt}, false},
  };
  for (const Strict& s : stricter) {
    SCOPED_TRACE(s.name);
    const dift::SecurityPolicy strict = policy_for(s.ec, s.classify_code);
    vp::VpDift fresh;
    fresh.load(prog);
    fresh.apply_policy(strict);
    const vp::RunResult want = fresh.run(sysc::Time::ms(10));
    ASSERT_EQ(want.reason, vp::ExitReason::kViolation);

    vp::VpDift warm;
    warm.load(prog);
    warm.apply_policy(weak);
    ASSERT_EQ(warm.run(sysc::Time::ms(10)).reason, vp::ExitReason::kExit);
    warm.reset(/*keep_translations=*/true);
    warm.load(prog);
    warm.apply_policy(strict);
    const vp::RunResult got = warm.run(sysc::Time::ms(10));
    ASSERT_EQ(got.reason, vp::ExitReason::kViolation);
    EXPECT_EQ(got.violation_kind, want.violation_kind);
    EXPECT_EQ(got.violation_pc, want.violation_pc);
    EXPECT_EQ(got.violation_source, want.violation_source);
    EXPECT_EQ(got.violation_required, want.violation_required);
    EXPECT_EQ(got.violation_where, want.violation_where);
    EXPECT_EQ(got.violation_message, want.violation_message);
    EXPECT_EQ(got.instret, want.instret);
    EXPECT_EQ(got.stats.flow_checks, want.stats.flow_checks);
  }
}

// ---------------------------------------------------------------------------
// Gate decisions around the two register writes of a plain state that can
// bring a tag in without a tainted dispatch before them: a CSR read at the
// end of a plain dispatch, and a load in a bus-fetched (XIP flash) step.
// Each leaves its tag in a CSR as evidence (the gate does not look at
// CSRs), and the registers are cleared so plain dispatch resumes. The taint
// enters through a UART byte, so the tag plane stays ⊥ throughout.
// ---------------------------------------------------------------------------

TEST(CoreClearance, GateDecisionsStayPut) {
  const dift::Lattice l = dift::Lattice::ifp1();
  const Tag hc = l.tag_of("HC");

  rvasm::Assembler f(am::kFlashBase);  // runs through the slow fetch path
  f.la(t2, "word");
  f.lw(a3, t2, 0);  // flash data: HC
  f.ret();
  f.align(4);
  f.label("word");
  f.word(0x1234);
  const std::vector<std::uint8_t> flash = f.assemble().segments.front().bytes;

  rvasm::Assembler a(am::kRamBase);
  // A classified UART byte into a1 and mscratch: a plain dispatch promoted
  // by the bus load, then tainted ones.
  a.li(a0, fw::mmio::kUartRx);
  a.lbu(a1, a0, 0);
  a.add(a2, a1, a1);
  a.csrrw(zero, rv::csr::kMscratch, a1);
  a.li(s0, 10);
  a.label("tainted");
  a.add(a2, a2, a1);
  a.addi(s0, s0, -1);
  a.bnez(s0, "tainted");
  a.li(a1, 0);
  a.li(a2, 0);
  // Plain again.
  a.li(s0, 10);
  a.label("plain1");
  a.addi(s0, s0, -1);
  a.bnez(s0, "plain1");
  // The CSR read ends a plain dispatch with a tagged a5: the next dispatch
  // must be tainted, so the copy keeps the tag.
  a.csrrs(a5, rv::csr::kMscratch, zero);
  a.mv(a7, a5);
  a.csrrw(zero, rv::csr::kMtval, a7);
  a.li(a5, 0);
  a.li(a7, 0);
  a.li(s0, 10);
  a.label("plain2");
  a.addi(s0, s0, -1);
  a.bnez(s0, "plain2");
  // A call into flash from a plain state: its load is a slow-path step,
  // after which the next dispatch must be tainted.
  a.li(t1, am::kFlashBase);
  a.jalr(ra, t1, 0);
  a.mv(a6, a3);
  a.csrrw(zero, rv::csr::kMepc, a6);
  a.li(a3, 0);
  a.li(a6, 0);
  a.li(t2, 0);
  a.li(s0, 10);
  a.label("plain3");
  a.addi(s0, s0, -1);
  a.bnez(s0, "plain3");
  a.li(t0, fw::mmio::kSysExit);
  a.sw(zero, t0, 0);
  a.label("spin");
  a.j("spin");
  const rvasm::Program prog = a.assemble();

  dift::SecurityPolicy policy(l);
  policy.classify_input("uart0.rx", hc);
  policy.classify_input("flash0", hc);
  policy.set_execution_clearance({hc, hc, hc});
  vp::VpConfig cfg;
  cfg.flash_image = flash;
  cfg.quantum_instructions = 64;  // keep the exit's spin short
  vp::VpDift v(cfg);
  v.load(prog);
  v.apply_policy(policy);
  v.uart().feed_input("k");
  const vp::RunResult r = v.run(sysc::Time::ms(10));
  ASSERT_EQ(r.reason, vp::ExitReason::kExit);
  EXPECT_EQ(v.core().csrs().mtval.tag, hc);
  EXPECT_EQ(v.core().csrs().mepc.value, 0x1234u);
  EXPECT_EQ(v.core().csrs().mepc.tag, hc);
  // Pinned to the counters of the same run with context-table checks and a
  // sticky OR in every register write.
  EXPECT_EQ(r.instret, 128u);
  EXPECT_EQ(r.stats.plain_variant_hits, 37u);
  EXPECT_EQ(r.stats.tainted_variant_hits, 15u);
  EXPECT_EQ(r.stats.variant_promotions, 1u);
  EXPECT_EQ(r.stats.flow_checks, 30u);
  EXPECT_EQ(r.stats.fetch_summary_hits, 124u);
  EXPECT_EQ(r.stats.lub_calls, 0u);
}

// A tainted dispatch writes register tags without touching the sticky bit
// per write: its entry sets the bit once. When the plane then turns ⊥ from
// outside the core (here a reclassification), the gate must still see the
// tagged register and keep the next dispatch tainted.
TEST(CoreClearance, RegisterTagsOfATaintedDispatchReachTheGate) {
  const dift::Lattice l = dift::Lattice::ifp1();
  const Tag hc = l.tag_of("HC");
  dift::DiftContext ctx(l);
  constexpr std::uint32_t kData = TaintVm::kBase + 0x1000;
  rvasm::Assembler a(TaintVm::kBase);
  a.lw(a1, a0, 0);
  a.j("next");
  a.label("next");
  a.sw(a1, a0, 4);
  a.label("spin");
  a.j("spin");
  dift::SecurityPolicy policy(l);
  TaintVm vm;
  vm.load(a.assemble());
  vm.core.set_policy(&policy);
  vm.core.set_reg(a0, dift::Taint<std::uint32_t>(kData, kBottomTag));
  vm.ram.classify(kData - TaintVm::kBase, 64, hc);
  vm.core.run(2);  // lw, j: tainted (the plane holds HC)
  ASSERT_EQ(vm.tag(a1), hc);
  vm.ram.classify(kData - TaintVm::kBase, 64, kBottomTag);
  ASSERT_TRUE(vm.ram.shadow().all_bottom());
  vm.core.run(1);  // sw: a1 is tagged, so tainted again
  EXPECT_EQ(vm.ram.tag_at(kData - TaintVm::kBase + 4), hc);
  EXPECT_EQ(vm.core.stats().plain_variant_hits, 0u);
  EXPECT_EQ(vm.core.stats().tainted_variant_hits, 2u);
}

// ---------------------------------------------------------------------------
// SensorDataTag
// ---------------------------------------------------------------------------

// The register's bound is the active lattice's size: its last class is
// taken, the next value is refused and changes nothing.
TEST(SensorDataTagRegister, BoundIsTheActiveLatticeSize) {
  const dift::Lattice l = dift::Lattice::ifp1();  // 2 classes
  dift::DiftContext ctx(l);
  sysc::Simulation sim;
  soc::Sensor sensor(sim, "sensor0");
  EXPECT_EQ(sensor.write(soc::Sensor::kDataTagReg, 1, 2, kBottomTag),
            tlmlite::Response::kGenericError);
  EXPECT_EQ(sensor.data_tag(), kBottomTag);
  EXPECT_EQ(sensor.write(soc::Sensor::kDataTagReg, 1, 1, kBottomTag),
            tlmlite::Response::kOk);
  EXPECT_EQ(sensor.data_tag(), 1);
  EXPECT_EQ(sensor.write(soc::Sensor::kDataTagReg, 4, 0x102, kBottomTag),
            tlmlite::Response::kGenericError);
  EXPECT_EQ(sensor.data_tag(), 1);
}

class SensorDataTag : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDataTag =
      static_cast<std::uint32_t>(am::kSensorBase + soc::Sensor::kDataTagReg);
  static constexpr std::uint32_t kSecret = am::kRamBase + 0x2000;
  static constexpr std::uint32_t kSum = am::kRamBase + 0x2100;

  dift::Lattice lattice_ = dift::Lattice::ifp1();
  Tag lc_ = lattice_.tag_of("LC"), hc_ = lattice_.tag_of("HC");
};

// A store of 0x41 under a 2-class policy faults and leaves the class; the
// frames keep HC, and no register or plane byte ever holds a tag past HC.
TEST_F(SensorDataTag, ClassOutsideTheLatticeFaultsTheStore) {
  rvasm::Assembler a(am::kRamBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);
  a.li(a2, kDataTag);
  a.li(a1, 0x41);
  a.label("store");
  a.sb(a1, a2, 0);
  a.lbu(s1, a2, 0);  // the class read back
  a.li(a0, am::kSensorBase);
  a.li(a4, kSum);
  a.li(s0, 3000);
  a.label("loop");
  a.lw(a3, a0, 0);  // frame bytes: HC
  a.add(a5, a5, a3);
  a.sw(a5, a4, 0);
  a.addi(s0, s0, -1);
  a.bnez(s0, "loop");
  a.li(t0, fw::mmio::kSysExit);
  a.sw(zero, t0, 0);
  a.label("spin");
  a.j("spin");
  a.align(4);
  a.label("handler");  // counts the fault in s2 and skips the store
  a.csrrs(s3, rv::csr::kMcause, zero);
  a.csrrs(s4, rv::csr::kMepc, zero);
  a.addi(s2, s2, 1);
  a.addi(t1, s4, 4);
  a.csrrw(zero, rv::csr::kMepc, t1);
  a.mret();
  const rvasm::Program prog = a.assemble();

  dift::SecurityPolicy policy(lattice_);
  policy.classify_input("sensor0", hc_);
  policy.set_execution_clearance({hc_, hc_, hc_});
  vp::VpConfig cfg;
  cfg.sensor_period = sysc::Time::us(20);
  vp::VpDift v(cfg);
  v.load(prog);
  v.apply_policy(policy);
  v.enable_trace(1u << 16);
  const vp::RunResult r = v.run(sysc::Time::ms(10));
  ASSERT_EQ(r.reason, vp::ExitReason::kExit);
  EXPECT_GT(v.sensor().frames_generated(), 3u);
  EXPECT_EQ(v.sensor().data_tag(), hc_);
  const auto reg = [&](rvasm::Reg x) { return v.core().reg(x); };
  ASSERT_GT(v.trace()->pushed(), 0u);
  EXPECT_EQ(reg(s2).value(), 1u);
  EXPECT_EQ(reg(s3).value(), rv::kCauseStoreAccessFault);
  EXPECT_EQ(reg(s4).value(), prog.symbol("store"));
  EXPECT_EQ(reg(s1).value(), hc_);
  EXPECT_EQ(reg(a5).tag(), hc_);  // the frames still carry HC
  ASSERT_LT(v.trace()->pushed(), v.trace()->capacity());
  for (const rv::TraceEntry& e : v.trace()->snapshot())
    ASSERT_LT(e.rd_tag, lattice_.size()) << "pc " << std::hex << e.pc;
  for (int x = 0; x < 32; ++x)
    EXPECT_LT(reg(static_cast<rvasm::Reg>(x)).tag(), lattice_.size()) << "x" << x;
  for (std::size_t off = 0; off < v.ram().size(); ++off)
    ASSERT_LT(v.ram().tag_at(off), lattice_.size()) << "ram offset " << off;
}

// A class inside the lattice is taken.
TEST_F(SensorDataTag, ClassInsideTheLatticeIsTaken) {
  rvasm::Assembler a(am::kRamBase);
  a.li(a2, kDataTag);
  a.li(a1, lc_);
  a.sb(a1, a2, 0);
  a.li(t0, fw::mmio::kSysExit);
  a.sw(zero, t0, 0);
  a.label("spin");
  a.j("spin");
  dift::SecurityPolicy policy(lattice_);
  policy.classify_input("sensor0", hc_);
  vp::VpDift v;
  v.load(a.assemble());
  v.apply_policy(policy);
  ASSERT_EQ(v.run(sysc::Time::ms(1)).reason, vp::ExitReason::kExit);
  EXPECT_EQ(v.sensor().data_tag(), lc_);
}

// A classified store's conversion violation names the register's bus
// address and site, in enforcement (on a bare core and through the VP+) and
// in monitor mode.
TEST_F(SensorDataTag, ConversionViolationNamesTheRegister) {
  rvasm::Assembler a(am::kRamBase);
  a.li(a0, kSecret);
  a.lbu(a1, a0, 0);
  a.li(a2, kDataTag);
  a.label("store");
  a.sb(a1, a2, 0);
  a.li(t0, fw::mmio::kSysExit);
  a.sw(zero, t0, 0);
  a.label("spin");
  a.j("spin");
  const rvasm::Program prog = a.assemble();
  dift::SecurityPolicy policy(lattice_);
  policy.classify_memory(kSecret, 1, hc_);

  {
    dift::DiftContext ctx(lattice_);
    TaintVm vm;
    soc::Sensor sensor(vm.sim, "sensor0");
    vm.bus.map(am::kSensorBase, am::kSensorSize, sensor.socket(), "sensor0");
    vm.load(prog);
    vm.ram.classify(kSecret - TaintVm::kBase, 1, hc_);
    try {
      vm.core.run(100);
      ADD_FAILURE() << "expected a conversion violation";
    } catch (const dift::PolicyViolation& v) {
      EXPECT_EQ(v.kind(), ViolationKind::kConversion);
      EXPECT_EQ(v.pc(), prog.symbol("store"));
      EXPECT_EQ(v.address(), kDataTag);
      EXPECT_EQ(v.where(), "sensor0.data_tag");
    }
    EXPECT_EQ(sensor.data_tag(), kBottomTag);
  }

  vp::VpDift enforce;
  enforce.load(prog);
  enforce.apply_policy(policy);
  const vp::RunResult e = enforce.run(sysc::Time::ms(1));
  ASSERT_EQ(e.reason, vp::ExitReason::kViolation);
  EXPECT_EQ(e.violation_kind, ViolationKind::kConversion);
  EXPECT_EQ(e.violation_pc, prog.symbol("store"));
  EXPECT_EQ(e.violation_where, "sensor0.data_tag");
  EXPECT_NE(e.violation_message.find("sensor0.data_tag"), std::string::npos);

  vp::VpDift monitor;
  monitor.load(prog);
  monitor.apply_policy(policy);
  monitor.set_monitor_mode(true);
  const vp::RunResult m = monitor.run(sysc::Time::ms(1));
  ASSERT_EQ(m.reason, vp::ExitReason::kExit);
  ASSERT_EQ(m.recorded_violations.size(), 1u);
  const dift::ViolationRecord& rec = m.recorded_violations[0];
  EXPECT_EQ(rec.kind, ViolationKind::kConversion);
  EXPECT_EQ(rec.pc, prog.symbol("store"));
  EXPECT_EQ(rec.address, kDataTag);
  EXPECT_EQ(rec.where, "sensor0.data_tag");
  EXPECT_EQ(monitor.sensor().data_tag(), lc_);  // the byte's value, 0
}

}  // namespace
