// Edge-case tests for the basic-block translation cache in rv::Core:
// self-modifying code (guest stores and host pokes must force a re-decode),
// interrupts raised mid-block (taken at the next instruction boundary with an
// exact mepc), trace equivalence between block execution and single-stepping,
// code above the old 256 KiB decode-cache window, the fetch-clearance
// decision per dispatch, and the MMIO path (bus stores stay in their block;
// DMA into code is caught on block entry).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "dift/context.hpp"
#include "dift/policy_parser.hpp"
#include "fw/benchmarks.hpp"
#include "micro_vm.hpp"
#include "rv/csr.hpp"
#include "rv/trace.hpp"
#include "soc/addrmap.hpp"
#include "soc/clint.hpp"
#include "soc/dma.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using testutil::MicroVm;
using Vm = MicroVm<rv::PlainWord>;

Vm& run_asm(Vm& vm, const std::function<void(rvasm::Assembler&)>& emit,
            std::uint64_t steps) {
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  vm.load(a.assemble());
  vm.core.run(steps);
  return vm;
}

// addi a0, zero, 99 / addi a0, a0, 5 — patch payloads for the SMC tests.
constexpr std::uint32_t kAddiA0Zero99 = 0x06300513;
constexpr std::uint32_t kAddiA0A05 = 0x00550513;

TEST(BlockEngine, CountersTrackHitsMissesChains) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.label("top");
    a.addi(a0, a0, 1);
    a.j("top");
  }, 100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto& s = vm.core.stats();
  // One two-op block, decoded once; iteration 2 is a lookup hit, iterations
  // 3..50 ride the self-chain.
  EXPECT_EQ(s.decode_misses, 2u);
  EXPECT_EQ(s.decode_hits, 98u);
  EXPECT_EQ(s.block_misses, 1u);
  EXPECT_EQ(s.block_hits, 1u);
  EXPECT_EQ(s.chained_transfers, 48u);
  EXPECT_EQ(s.block_invalidations, 0u);
}

// A guest store into an already-cached block must invalidate it: the second
// call re-decodes the patched bytes instead of replaying stale micro-ops.
TEST(BlockEngine, GuestStoreIntoCachedBlockForcesRedecode) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.la(t0, "site_fn");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.call("site_fn");
    a.mv(s2, a0);        // original body: a0 = 1
    a.sw(t1, t0, 0);     // patch the cached function body
    a.call("site_fn");
    a.mv(s3, a0);        // patched body: a0 = 99
    a.label("spin");
    a.j("spin");
    a.label("site_fn");
    a.addi(a0, zero, 1);
    a.ret();
  }, 40);
  EXPECT_EQ(vm.reg(s2), 1u);
  EXPECT_EQ(vm.reg(s3), 99u);
  EXPECT_GE(vm.core.stats().block_invalidations, 1u);
}

// A store that overwrites an instruction *later in the currently executing
// block* must take effect before that instruction runs — the engine may not
// keep executing stale micro-ops past the store.
TEST(BlockEngine, StoreIntoOwnBlockExecutesNewBytes) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.la(t0, "site");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.sw(t1, t0, 0);
    a.label("site");
    a.addi(a0, zero, 1);  // overwritten before it ever executes
    a.label("spin");
    a.j("spin");
  }, 20);
  EXPECT_EQ(vm.reg(a0), 99u);
}

// Host-side pokes (debugger writes, DMA outside the bus) are caught by the
// code-write epoch they move (Memory::data()) on the next block entry.
TEST(BlockEngine, HostPokeInvalidatesCachedBlock) {
  Vm vm;
  rvasm::Assembler a(Vm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.load(p);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);

  const std::uint64_t off = p.symbol("top") - Vm::kBase;
  std::memcpy(vm.ram.data() + off, &kAddiA0A05, 4);  // addi a0, a0, 5
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u + 50u * 5u);
  EXPECT_GE(vm.core.stats().block_invalidations, 1u);
}

// CPU + RAM + CLINT harness: the CLINT's msip register raises the machine
// software interrupt synchronously from within a store instruction.
struct IrqVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 64 * 1024, false};
  soc::Clint clint{sim, "clint"};
  rv::Core<rv::PlainWord> core;

  IrqVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    bus.map(soc::addrmap::kClintBase, soc::addrmap::kClintSize, clint.socket(), "clint");
    core.set_bus(bus);
    core.set_dmi(ram.dmi_data(), nullptr, ram.written_pages(),
                 ram.code_lines(), ram.code_epoch(), kBase,
                 ram.size(), nullptr);
    clint.set_soft_irq(
        [this](bool level) { core.set_irq(rv::kIrqMsoft, level); });
    core.set_pc(kBase);
  }
};

// An interrupt raised by a store in the middle of a straight-line block must
// be taken before the next instruction of that block retires, with mepc
// pointing exactly at the not-yet-executed successor.
TEST(BlockEngine, MidBlockInterruptTakenWithExactMepc) {
  IrqVm vm;
  rvasm::Assembler a(IrqVm::kBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);
  a.li(t1, rv::kIrqMsoft);
  a.csrrs(zero, rv::csr::kMie, t1);
  a.li(t2, static_cast<std::int64_t>(soc::addrmap::kClintBase));
  a.li(t3, 1);
  a.csrrsi(zero, rv::csr::kMstatus, 8);  // MIE on (CSR op: block boundary)
  // Straight-line block: marker, msip store, two instructions that must NOT
  // retire before the trap.
  a.addi(a0, zero, 1);
  a.sw(t3, t2, 0);  // msip = 1 -> M-soft IRQ pending mid-block
  a.label("after");
  a.addi(a1, zero, 1);
  a.addi(a2, zero, 1);
  a.label("spin");
  a.j("spin");
  a.label("handler");
  a.csrrs(s0, rv::csr::kMepc, zero);
  a.csrrs(s1, rv::csr::kMcause, zero);
  a.label("hspin");
  a.j("hspin");
  const auto p = a.assemble();
  vm.ram.load_image(p, IrqVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(40);

  EXPECT_EQ(vm.core.reg(10), 1u);  // a0: executed before the store
  EXPECT_EQ(vm.core.reg(11), 0u);  // a1: preempted by the trap
  EXPECT_EQ(vm.core.reg(12), 0u);  // a2: preempted by the trap
  EXPECT_EQ(vm.core.reg(8), static_cast<std::uint32_t>(p.symbol("after")));
  EXPECT_EQ(vm.core.reg(9), 0x80000003u);  // machine software interrupt
}

// run(N) through the block engine and N x run(1) single-stepping must produce
// bit-identical traces (and identical architectural state).
TEST(BlockEngine, TraceBitIdenticalToSingleStep) {
  const auto emit = [](rvasm::Assembler& a) {
    a.li(s0, 12);
    a.li(a0, 0);
    a.li(t0, static_cast<std::int64_t>(Vm::kBase + 0x8000));
    a.label("loop");
    a.add(a0, a0, s0);
    a.sw(a0, t0, 0);
    a.lw(a1, t0, 0);
    a.xor_(a2, a1, s0);
    a.addi(s0, s0, -1);
    a.bnez(s0, "loop");
    a.label("spin");
    a.j("spin");
  };
  constexpr std::uint64_t kSteps = 90;

  Vm block_vm, step_vm;
  rv::TraceBuffer block_trace(256), step_trace(256);
  block_vm.core.set_trace(&block_trace);
  step_vm.core.set_trace(&step_trace);
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  const auto p = a.assemble();
  block_vm.load(p);
  step_vm.load(p);

  block_vm.core.run(kSteps);
  for (std::uint64_t i = 0; i < kSteps; ++i) step_vm.core.run(1);

  for (int r = 0; r < 32; ++r)
    EXPECT_EQ(block_vm.reg(static_cast<std::uint8_t>(r)),
              step_vm.reg(static_cast<std::uint8_t>(r)))
        << "x" << r;
  const auto sb = block_trace.snapshot();
  const auto ss = step_trace.snapshot();
  ASSERT_EQ(sb.size(), ss.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_EQ(sb[i].instret, ss[i].instret) << i;
    EXPECT_EQ(sb[i].pc, ss[i].pc) << i;
    EXPECT_EQ(sb[i].raw, ss[i].raw) << i;
    EXPECT_EQ(sb[i].rd, ss[i].rd) << i;
    EXPECT_EQ(sb[i].rd_value, ss[i].rd_value) << i;
    EXPECT_EQ(sb[i].rd_tag, ss[i].rd_tag) << i;
  }
}

// The old decode cache stopped at a fixed 256 KiB window; the block cache
// sizes itself to the DMI region, so code high in a large RAM still hits.
struct BigVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 1u << 20, false};  // 1 MiB
  rv::Core<rv::PlainWord> core;

  BigVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    core.set_bus(bus);
    core.set_dmi(ram.dmi_data(), nullptr, ram.written_pages(),
                 ram.code_lines(), ram.code_epoch(), kBase,
                 ram.size(), nullptr);
    core.set_pc(kBase);
  }
};

TEST(BlockEngine, CachesCodeBeyond256KiB) {
  BigVm vm;
  rvasm::Assembler a(BigVm::kBase + 0x50000);  // 320 KiB into RAM
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.ram.load_image(p, BigVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(200);

  EXPECT_EQ(vm.core.reg(10), 100u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.block_hits + s.chained_transfers, 0u);
  EXPECT_GT(s.decode_hits, 0u);
}

// ---------------------------------------------------------------------------
// Taint-liveness variant gate (dual block variants on the VP+ core).
// ---------------------------------------------------------------------------

using TaintVm = MicroVm<rv::TaintedWord>;

// With a uniformly-bottom tag plane and clean registers, every dispatch must
// take the plain-word variant: zero tag work, no promotions.
TEST(BlockEngine, CleanPlaneRunsPlainVariant) {
  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  vm.load(a.assemble());
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.tainted_variant_hits, 0u);
  EXPECT_EQ(s.variant_promotions, 0u);
}

// A live tag — in the plane and then also in a register — must force the
// tainted variant; after the classification is withdrawn and the register
// overwritten, the sticky register-tag OR is re-verified by the rescan and
// the plain variant re-engages. (A guest's partial ⊥ store over a mixed
// summary block conservatively stays mixed, so the plane is cleaned the
// way snapshot restore does it: reclassify + summary update.)
TEST(BlockEngine, LiveTaintDisablesPlainVariantUntilCleared) {
  TaintVm vm;
  constexpr std::uint64_t kDataOff = 0x8000;
  rvasm::Assembler a(TaintVm::kBase);
  a.li(t0, static_cast<std::int64_t>(TaintVm::kBase + kDataOff));
  a.li(t2, 20);
  a.lw(s0, t0, 0);  // tagged load: plane live, then s0 carries the tag
  a.label("loop1");
  a.addi(a0, a0, 1);
  a.bne(a0, t2, "loop1");
  a.li(s0, 0);  // overwrite the tagged register (sticky OR stays set)
  a.label("spin");
  a.j("spin");
  const auto p = a.assemble();
  vm.ram.write_u32(kDataOff, 0x1234);
  vm.ram.classify(kDataOff, 4, dift::Tag{1});
  vm.load(p);
  vm.core.run(60);

  EXPECT_EQ(vm.reg(a0), 20u);
  EXPECT_EQ(vm.tag(s0), dift::kBottomTag);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.tainted_variant_hits, 0u);  // plane live the whole phase
  EXPECT_EQ(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.variant_promotions, 0u);  // taint never appeared mid-plain

  // Withdraw the classification. A partial ⊥ fill over a mixed summary
  // block conservatively stays mixed, so re-uniform the whole block —
  // kDataOff is block-aligned, and bytes past the word were ⊥ already.
  vm.ram.classify(kDataOff, dift::ShadowSummary::kBlockBytes,
                  dift::kBottomTag);
  const auto tainted_before = s.tainted_variant_hits;
  vm.core.run(60);
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.tainted_variant_hits, tainted_before);
}

// Two tainted registers: the gate remembers the one its last rescan found
// (x8 here, the lowest) and tests it first. Clearing that one alone must
// not bring the plain variant back while the other is still tainted;
// clearing both must.
TEST(BlockEngine, ClearingRememberedTaintedRegisterKeepsDispatchTainted) {
  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  vm.load(a.assemble());
  using Ops = rv::WordOps<rv::TaintedWord>;
  vm.core.set_reg(s0, Ops::make(5, dift::Tag{1}));
  vm.core.set_reg(s1, Ops::make(6, dift::Tag{1}));
  const auto& s = vm.core.stats();

  vm.core.run(20);
  EXPECT_EQ(s.plain_variant_hits, 0u);
  const auto tainted_both = s.tainted_variant_hits;
  EXPECT_GT(tainted_both, 0u);

  vm.core.set_reg(s0, Ops::make(5, dift::kBottomTag));  // the remembered one
  vm.core.run(20);
  EXPECT_EQ(s.plain_variant_hits, 0u);
  EXPECT_GT(s.tainted_variant_hits, tainted_both);

  vm.core.set_reg(s1, Ops::make(6, dift::kBottomTag));
  const auto tainted_one = s.tainted_variant_hits;
  vm.core.run(20);
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_EQ(s.tainted_variant_hits, tainted_one);
  EXPECT_EQ(vm.reg(a0), 30u);
}

// ---------------------------------------------------------------------------
// Fetch clearance: decided on every dispatch, never cached on a block.
// ---------------------------------------------------------------------------

// Lattice LO -> MID -> HI with fetch clearance MID: ⊥ (LO) code is cleared
// by a counted lookup, and a MID register keeps every dispatch tainted, so
// the loop runs on the cleared tainted loop, chained. Once the host
// classifies the loop's bytes HI, the next dispatch of the cached block
// must refuse the fetch at the block head.
void expect_reclassified_code_refused(bool monitor) {
  dift::Lattice::Builder lb;
  const dift::Tag lo = lb.add_class("LO");
  const dift::Tag mid = lb.add_class("MID");
  const dift::Tag hi = lb.add_class("HI");
  lb.add_flow(lo, mid).add_flow(mid, hi);
  const dift::Lattice lattice = lb.build();
  dift::SecurityPolicy policy(lattice);
  policy.set_execution_clearance({mid, std::nullopt, std::nullopt});
  dift::DiftContext ctx(lattice);
  ctx.set_monitor_mode(monitor);

  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.load(p);
  vm.core.set_policy(&policy);
  vm.core.set_reg(s5, rv::WordOps<rv::TaintedWord>::make(0, mid));
  vm.core.run(20);  // ten iterations, stopping at the block head
  const auto& s = vm.core.stats();
  ASSERT_EQ(vm.reg(a0), 10u);
  EXPECT_EQ(s.plain_variant_hits, 0u);
  EXPECT_GT(s.chained_transfers, 0u);
  EXPECT_EQ(s.fetch_summary_hits, 20u);  // cleared: no per-instruction check
  ASSERT_TRUE(ctx.recorded().empty());

  const std::uint64_t top = p.symbol("top");
  vm.ram.classify(top - TaintVm::kBase, dift::ShadowSummary::kBlockBytes, hi);
  if (monitor) {
    vm.core.run(20);
    EXPECT_EQ(vm.reg(a0), 20u);  // monitor mode records and goes on
    ASSERT_EQ(ctx.recorded().size(), 20u);  // one record per instruction
    EXPECT_EQ(ctx.recorded().front().kind, dift::ViolationKind::kFetchClearance);
    EXPECT_EQ(ctx.recorded().front().pc, top);
  } else {
    try {
      vm.core.run(20);
      ADD_FAILURE() << "fetch of HI code was not refused";
    } catch (const dift::PolicyViolation& v) {
      EXPECT_EQ(v.kind(), dift::ViolationKind::kFetchClearance);
      EXPECT_EQ(v.pc(), top);
    }
    EXPECT_EQ(vm.reg(a0), 10u);  // nothing retired
  }
}

TEST(BlockEngine, ReclassifiedCodeIsRefusedOnNextDispatch) {
  {
    SCOPED_TRACE("enforce");
    expect_reclassified_code_refused(false);
  }
  {
    SCOPED_TRACE("monitor");
    expect_reclassified_code_refused(true);
  }
}

// A policy file may list a class other than its least first, so tag 0 —
// the tag of all unclassified memory and registers — need not be cleared
// for fetch. Such a policy must not dispatch the plain variant: the first
// fetch is refused at the entry point.
TEST(BlockEngine, ClearanceRefusingTagZeroDispatchesTainted) {
  const auto spec = dift::PolicySpec::parse(
      "class HI\n"
      "class LO\n"
      "flow LO -> HI\n"
      "exec fetch LO\n");
  ASSERT_EQ(spec.lattice().tag_of("HI"), dift::kBottomTag);
  dift::DiftContext ctx(spec.lattice());
  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.j("top");
  vm.load(a.assemble());
  vm.core.set_policy(&spec.policy());
  try {
    vm.core.run(20);
    ADD_FAILURE() << "fetch of tag-0 code was not refused";
  } catch (const dift::PolicyViolation& v) {
    EXPECT_EQ(v.kind(), dift::ViolationKind::kFetchClearance);
    EXPECT_EQ(v.pc(), TaintVm::kBase);
  }
  EXPECT_EQ(vm.reg(a0), 0u);
  EXPECT_EQ(vm.core.stats().plain_variant_hits, 0u);
}

// Regression: the careful path counted two flow_checks for a uniformly
// tagged instruction whose fetch is refused, the span lookup and then a
// second one for the same pair inside check_flow(). With primes' RAM
// classified HI under "exec fetch LO", every fetch is refused: one lookup
// per dispatch (the block-span check) plus one per instruction.
TEST(BlockEngine, RefusedUniformFetchCountsOneFlowCheck) {
  const auto spec = dift::PolicySpec::parse(
      "class LO\n"
      "class HI\n"
      "flow LO -> HI\n"
      "classify memory 0x80000000 0x10000 HI\n"
      "exec fetch LO\n");
  vp::VpDift v;
  v.load(fw::make_primes(10000));
  v.apply_policy(spec.policy());
  v.set_monitor_mode(true);
  const auto r = v.run(sysc::Time::sec(10));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.instret, 737280u);
  EXPECT_EQ(r.recorded_violations.size(), r.instret);
  EXPECT_EQ(r.stats.tainted_variant_hits, 134793u);
  EXPECT_EQ(r.stats.flow_checks, 872073u);  // 737,280 + 134,793
}

// CPU + two memories: the DMI-backed RAM (clean) plus a second memory
// reachable only over the bus — MMIO, and on the VP+ the source of
// mid-block taint.
template <typename W>
struct IoVm {
  static constexpr std::uint64_t kBase = 0x80000000ull;
  static constexpr std::uint64_t kIoBase = 0x90000000ull;

  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 64 * 1024, rv::WordOps<W>::kTainted};
  soc::Memory io{sim, "io", 4 * 1024, rv::WordOps<W>::kTainted};
  rv::Core<W> core;

  IoVm() {
    bus.map(kBase, ram.size(), ram.socket(), "ram");
    bus.map(kIoBase, io.size(), io.socket(), "io");
    core.set_bus(bus);
    core.set_dmi(ram.dmi_data(), ram.tags(), ram.written_pages(),
                 ram.code_lines(), ram.code_epoch(), kBase,
                 ram.size(), ram.tags() ? &ram.shadow() : nullptr);
    core.set_pc(kBase);
  }
};
using TaintIoVm = IoVm<rv::TaintedWord>;

// The promotion edge: a block starts on the plain variant, then a bus load
// pulls in a tagged word mid-block. The plain variant must fall back BEFORE
// the next op runs plainly — the loaded tag is preserved and propagates
// through the ops that follow.
TEST(BlockEngine, MidBlockTaintedLoadPromotesBeforeNextOp) {
  TaintIoVm vm;
  vm.io.write_u32(0, 0x1234);
  vm.io.classify(0, 4, dift::Tag{1});
  rvasm::Assembler a(TaintIoVm::kBase);
  a.li(t0, static_cast<std::int64_t>(TaintIoVm::kIoBase));
  a.addi(a0, zero, 7);  // plain-variant op in the same block as the load
  a.lw(s0, t0, 0);      // bus load of the tagged word -> promotion point
  a.addi(s1, s0, 1);    // must run on the tainted variant: tag propagates
  a.label("spin");
  a.j("spin");
  vm.ram.load_image(a.assemble(), TaintIoVm::kBase);
  vm.core.run(20);

  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(vm.core.reg(8)), 0x1234u);
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(8)), dift::Tag{1});
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(vm.core.reg(9)), 0x1235u);
  // The load's tag reached s1: the op after the promotion point did NOT
  // execute on the plain variant.
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(9)), dift::Tag{1});
  const auto& s = vm.core.stats();
  EXPECT_GE(s.variant_promotions, 1u);
  EXPECT_GT(s.plain_variant_hits, 0u);
  EXPECT_GT(s.tainted_variant_hits, 0u);
}

// ---------------------------------------------------------------------------
// MMIO path: bus stores do not end the block.
// ---------------------------------------------------------------------------

// simple-sensor's copy loop shape: MMIO byte load, MMIO byte store, two ALU
// ops and the loop branch. The store cannot change code before the quantum
// ends, so each iteration is one dispatch (the taken bnez is the only exit).
template <typename W>
std::uint64_t mmio_copy_loop_dispatches() {
  constexpr std::int64_t kIters = 100;
  IoVm<W> vm;
  for (std::uint32_t i = 0; i < kIters; ++i)
    vm.io.write_u32(std::size_t{i} * 4, 0x40 + i);  // only the low byte is copied
  rvasm::Assembler a(IoVm<W>::kBase);
  a.li(t0, static_cast<std::int64_t>(IoVm<W>::kIoBase));
  a.li(t1, static_cast<std::int64_t>(IoVm<W>::kIoBase + 0x800));
  a.li(s0, kIters);
  a.label("loop");
  a.lbu(a1, t0, 0);   // MMIO load
  a.sb(a1, t1, 0);    // MMIO store: stays in the block
  a.addi(t0, t0, 4);
  a.addi(t1, t1, 1);
  a.addi(s0, s0, -1);
  a.bnez(s0, "loop");
  a.label("spin");
  a.j("spin");
  const auto p = a.assemble();
  vm.ram.load_image(p, IoVm<W>::kBase);
  const std::uint64_t setup = (p.symbol("loop") - IoVm<W>::kBase) / 4;
  vm.core.run(setup + kIters * 6);  // stop as the last iteration retires
  EXPECT_EQ(rv::WordOps<W>::value(vm.core.reg(s0)), 0u);
  for (std::uint32_t i = 0; i < kIters; ++i)
    EXPECT_EQ(vm.io.data()[0x800 + i], 0x40 + i) << i;
  const auto& s = vm.core.stats();
  EXPECT_EQ(s.block_invalidations, 0u);
  return s.block_hits + s.block_misses + s.chained_transfers;
}

TEST(BlockEngine, MmioCopyLoopIsOneDispatchPerIteration) {
  // Iteration 1 runs in the set-up block; 2..100 enter the loop block (one
  // miss, then its self-chain). A block ended by every MMIO store would
  // take 200.
  EXPECT_EQ(mmio_copy_loop_dispatches<rv::PlainWord>(), 100u);
  EXPECT_EQ(mmio_copy_loop_dispatches<rv::TaintedWord>(), 100u);
}

// DMA copies a new body over a function that already ran (and whose block
// is cached and chained). The copy runs in the DMA thread after the CPU
// yields its quantum; polling the status register and calling the function
// again must run the new bytes: the DMA write moves the code-write epoch.
template <typename W>
void dma_patch_runs_new_body() {
  namespace am = soc::addrmap;
  rvasm::Assembler a(am::kRamBase);
  a.call("fn");
  a.mv(s2, a0);  // original body: a0 = 1
  a.li(t0, static_cast<std::int64_t>(am::kDmaBase));
  a.la(t1, "new_body");
  a.sw(t1, t0, static_cast<std::int32_t>(soc::Dma::kSrc));
  a.la(t1, "fn");
  a.sw(t1, t0, static_cast<std::int32_t>(soc::Dma::kDst));
  a.li(t1, 4);
  a.sw(t1, t0, static_cast<std::int32_t>(soc::Dma::kLen));
  a.li(t1, 1);
  a.sw(t1, t0, static_cast<std::int32_t>(soc::Dma::kCtrl));
  a.label("poll");
  a.lw(t1, t0, static_cast<std::int32_t>(soc::Dma::kStatus));
  a.andi(t1, t1, 2);  // done
  a.beqz(t1, "poll");
  a.call("fn");
  a.mv(s3, a0);  // DMA'd body: a0 = 99
  a.label("spin");
  a.j("spin");
  a.label("fn");
  a.addi(a0, zero, 1);
  a.ret();
  a.label("new_body");
  a.addi(a0, zero, 99);

  vp::VirtualPrototype<W> v;
  v.load(a.assemble());
  (void)v.run(sysc::Time::ms(1));
  EXPECT_EQ(rv::WordOps<W>::value(v.core().reg(s2)), 1u);
  EXPECT_EQ(rv::WordOps<W>::value(v.core().reg(s3)), 99u);
  EXPECT_GE(v.core().stats().block_invalidations, 1u);
}

TEST(BlockEngine, DmaIntoExecutedFunctionRunsNewBytes) {
  dma_patch_runs_new_body<rv::PlainWord>();
  dma_patch_runs_new_body<rv::TaintedWord>();
}

// ---------------------------------------------------------------------------
// Chained block dispatch across calls and loops.
// ---------------------------------------------------------------------------

// A hot call loop (head -> callee -> loop body -> back to head) runs as a
// chain of blocks whose execution is bit-identical to the careful
// per-instruction path.
TEST(BlockEngine, ChainedCallLoopMatchesCarefulPath) {
  const auto emit = [](rvasm::Assembler& a) {
    a.li(s0, 0);
    a.li(t2, 60);
    a.label("top");
    a.call("fn");
    a.addi(s0, s0, 1);
    a.beq(s0, t2, "done");
    a.j("top");
    a.label("done");
    a.label("spin");
    a.j("spin");
    a.label("fn");
    a.addi(a0, a0, 3);
    a.ret();
  };
  constexpr std::uint64_t kSteps = 400;

  Vm fast_vm;           // no trace buffer: chained block dispatch
  Vm careful_vm;        // trace buffer attached: per-instruction path
  rv::TraceBuffer careful_trace(16);
  careful_vm.core.set_trace(&careful_trace);
  rvasm::Assembler a(Vm::kBase);
  emit(a);
  const auto p = a.assemble();
  fast_vm.load(p);
  careful_vm.load(p);
  fast_vm.core.run(kSteps);
  careful_vm.core.run(kSteps);

  for (int r = 0; r < 32; ++r)
    EXPECT_EQ(fast_vm.reg(static_cast<std::uint8_t>(r)),
              careful_vm.reg(static_cast<std::uint8_t>(r)))
        << "x" << r;
  EXPECT_EQ(fast_vm.reg(a0), 180u);
  EXPECT_EQ(fast_vm.reg(s0), 60u);
  EXPECT_GT(fast_vm.core.stats().chained_transfers, 0u);
}

// A guest store into a chained callee block (not the loop head) must
// re-decode it on the next chained entry: every later call runs the
// patched bytes.
TEST(BlockEngine, SmcStoreIntoChainedCalleeRevalidates) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.li(s0, 0);
    a.li(t2, 80);
    a.li(t3, 40);
    a.la(t0, "fn");
    a.li(t1, static_cast<std::int64_t>(kAddiA0Zero99));
    a.label("top");
    a.call("fn");
    a.addi(s0, s0, 1);
    a.beq(s0, t3, "dopatch");
    a.label("cont");
    a.beq(s0, t2, "done");
    a.j("top");
    a.label("dopatch");
    a.sw(t1, t0, 0);  // patch the callee: addi a0, a0, 3 -> addi a0, zero, 99
    a.j("cont");
    a.label("done");
    a.label("spin");
    a.j("spin");
    a.label("fn");
    a.addi(a0, a0, 3);
    a.ret();
  }, 800);
  EXPECT_EQ(vm.reg(s0), 80u);
  // Calls 1..40 accumulate 3 each; calls 41..80 run the patched body.
  EXPECT_EQ(vm.reg(a0), 99u);
  const auto& s = vm.core.stats();
  EXPECT_GT(s.chained_transfers, 0u);
  EXPECT_GE(s.block_invalidations, 1u);
}

// An interrupt raised by a store inside a chained callee block must be
// taken at the next instruction boundary with an exact mepc, without
// retiring the rest of the block.
TEST(BlockEngine, ChainedCalleeInterruptTakenWithExactMepc) {
  IrqVm vm;
  rvasm::Assembler a(IrqVm::kBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);
  a.li(t1, rv::kIrqMsoft);
  a.csrrs(zero, rv::csr::kMie, t1);
  a.csrrsi(zero, rv::csr::kMstatus, 8);  // MIE on
  a.li(s2, static_cast<std::int64_t>(soc::addrmap::kClintBase));  // msip
  a.li(s3, static_cast<std::int64_t>(IrqVm::kBase + 0x8000));     // dummy
  a.sub(s5, s2, s3);
  a.li(s4, 30);  // fire on the 31st call — well after the chain is warm
  a.li(s0, 0);
  a.li(t6, 1);
  a.label("top");
  a.call("fn");
  a.addi(s0, s0, 1);
  a.j("top");
  a.label("fn");
  // Branchless target select: iterations 0..29 store to the dummy word,
  // iteration 30 stores to CLINT msip — raising the IRQ mid-callee.
  a.xor_(t4, s0, s4);
  a.sltiu(t4, t4, 1);
  a.sub(t5, zero, t4);
  a.and_(t5, t5, s5);
  a.add(t5, t5, s3);
  a.sw(t6, t5, 0);
  a.label("after_store");
  a.addi(a3, a3, 1);  // must NOT retire on the IRQ iteration
  a.ret();
  a.label("handler");
  a.csrrs(s6, rv::csr::kMepc, zero);
  a.csrrs(s7, rv::csr::kMcause, zero);
  a.label("hspin");
  a.j("hspin");
  const auto p = a.assemble();
  vm.ram.load_image(p, IrqVm::kBase);
  vm.core.set_pc(static_cast<std::uint32_t>(p.entry));
  vm.core.run(600);

  EXPECT_EQ(vm.core.reg(13), 30u);  // a3: one per completed call, none after
  EXPECT_EQ(vm.core.reg(22), static_cast<std::uint32_t>(p.symbol("after_store")));
  EXPECT_EQ(vm.core.reg(23), 0x80000003u);  // machine software interrupt
  // The IRQ iteration entered the callee through a warm chain.
  EXPECT_GT(vm.core.stats().chained_transfers, 10u);
}

// reset(pc, keep_translations=true) must keep the translated blocks (the
// warm re-arm path): a byte-identical second run re-decodes nothing.
TEST(BlockEngine, WarmResetKeepsTranslations) {
  Vm vm;
  run_asm(vm, [](auto& a) {
    a.label("top");
    a.addi(a0, a0, 1);
    a.j("top");
  }, 100);
  EXPECT_EQ(vm.reg(a0), 50u);
  const auto misses_cold = vm.core.stats().decode_misses;
  EXPECT_GT(misses_cold, 0u);

  vm.core.reset(static_cast<std::uint32_t>(Vm::kBase), true);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);  // registers were reset; semantics identical
  EXPECT_EQ(vm.core.stats().decode_misses, misses_cold);  // no re-decode

  vm.core.reset(static_cast<std::uint32_t>(Vm::kBase), false);
  vm.core.run(100);
  EXPECT_EQ(vm.reg(a0), 50u);
  EXPECT_GT(vm.core.stats().decode_misses, misses_cold);  // cold re-decodes
}

// ---------------------------------------------------------------------------
// Threaded dispatch: where a chain of micro-ops stops.
// ---------------------------------------------------------------------------

// A load from an unmapped address in the middle of a block traps: the chain
// stops at the load, which retires as the trapping instruction, and no later
// op of the block runs.
TEST(BlockEngine, MidBlockLoadFaultStopsChainAtTheLoad) {
  Vm vm;
  rvasm::Assembler a(Vm::kBase);
  a.la(t0, "handler");
  a.csrrw(zero, rv::csr::kMtvec, t0);  // CSR op: block boundary
  a.li(t1, 0x40000000);                // nothing is mapped there
  a.addi(a0, zero, 1);
  a.label("fault");
  a.lw(a1, t1, 0);
  a.addi(a2, zero, 1);  // must never run
  a.addi(a3, zero, 1);  // must never run
  a.label("spin");
  a.j("spin");
  a.label("handler");
  a.csrrs(s0, rv::csr::kMepc, zero);
  a.csrrs(s1, rv::csr::kMcause, zero);
  a.csrrs(s2, rv::csr::kMinstret, zero);
  a.label("hspin");
  a.j("hspin");
  const auto p = a.assemble();
  vm.load(p);
  vm.core.run(40);

  const std::uint64_t fault = p.symbol("fault");
  EXPECT_EQ(vm.reg(a0), 1u);
  EXPECT_EQ(vm.reg(a2), 0u);
  EXPECT_EQ(vm.reg(a3), 0u);
  EXPECT_EQ(vm.reg(s0), fault);
  EXPECT_EQ(vm.reg(s1), rv::kCauseLoadAccessFault);
  // Every op up to and including the load retired, then mepc and mcause
  // were read before minstret.
  EXPECT_EQ(vm.reg(s2), (fault - Vm::kBase) / 4 + 1 + 2);
  EXPECT_EQ(vm.core.instret(), 40u);
}

// A fault armed inside a block fires at exactly its instret, on the VP and
// on both VP+ variants: the dispatch holding the trigger stops short.
template <typename W>
void expect_fault_fires_mid_block(bool tainted_dispatch) {
  MicroVm<W> vm;
  rvasm::Assembler a(MicroVm<W>::kBase);
  a.label("top");
  for (int i = 0; i < 20; ++i) a.addi(a0, a0, 1);
  a.j("top");
  vm.load(a.assemble());
  // A tagged register the program never reads keeps every VP+ dispatch on
  // the tainted variant without changing what runs.
  if (tainted_dispatch) vm.core.set_reg(s5, rv::WordOps<W>::make(0, dift::Tag{1}));
  std::uint64_t fired_at = 0;
  std::uint32_t a0_at_fire = 0;
  vm.core.arm_fault(27, [&](rv::Core<W>& c) {
    fired_at = c.instret();
    a0_at_fire = rv::WordOps<W>::value(c.reg(a0));
  });
  vm.core.run(60);
  EXPECT_FALSE(vm.core.fault_armed());
  EXPECT_EQ(fired_at, 27u);
  EXPECT_EQ(a0_at_fire, 26u);  // 20 addis, the jump, 6 addis
  EXPECT_EQ(vm.core.instret(), 60u);
  if constexpr (rv::WordOps<W>::kTainted) {
    const auto& s = vm.core.stats();
    EXPECT_EQ(s.plain_variant_hits == 0, tainted_dispatch);
    EXPECT_EQ(s.tainted_variant_hits == 0, !tainted_dispatch);
  }
}

TEST(BlockEngine, ArmedFaultFiresAtExactInstretInsideABlock) {
  {
    SCOPED_TRACE("VP");
    expect_fault_fires_mid_block<rv::PlainWord>(false);
  }
  {
    SCOPED_TRACE("VP+ plain variant");
    expect_fault_fires_mid_block<rv::TaintedWord>(false);
  }
  {
    SCOPED_TRACE("VP+ tainted variant");
    expect_fault_fires_mid_block<rv::TaintedWord>(true);
  }
}

// A straight-line run of kMaxBlockOps (64) ops is one block and runs as one
// dispatch: one chain 64 ops long.
template <typename W>
void expect_64_op_block_is_one_dispatch() {
  MicroVm<W> vm;
  rvasm::Assembler a(MicroVm<W>::kBase);
  for (int i = 0; i < 64; ++i) a.addi(a0, a0, 1);
  a.label("spin");
  a.j("spin");
  vm.load(a.assemble());
  vm.core.run(64);
  EXPECT_EQ(rv::WordOps<W>::value(vm.core.reg(a0)), 64u);
  EXPECT_EQ(vm.core.instret(), 64u);
  EXPECT_EQ(vm.core.pc(), MicroVm<W>::kBase + 64 * 4);
  const auto& s = vm.core.stats();
  EXPECT_EQ(s.decode_misses, 64u);
  EXPECT_EQ(s.block_misses + s.block_hits + s.chained_transfers, 1u);
  if constexpr (rv::WordOps<W>::kTainted) {
    EXPECT_EQ(s.plain_variant_hits, 1u);
  }
}

TEST(BlockEngine, SixtyFourOpBlockRunsAsOneDispatch) {
  expect_64_op_block_is_one_dispatch<rv::PlainWord>();
  expect_64_op_block_is_one_dispatch<rv::TaintedWord>();
}

// An enforcement violation thrown by the third op of a warm block unwinds
// through the chain. The two ops before it retired; the refused one counts
// as fetched and decoded but not retired, like on the per-instruction
// engine.
TEST(BlockEngine, ViolationMidChainKeepsRetirementAndCounters) {
  dift::Lattice::Builder lb;
  const dift::Tag lo = lb.add_class("LO");
  const dift::Tag hi = lb.add_class("HI");
  lb.add_flow(lo, hi);
  const dift::Lattice lattice = lb.build();
  dift::SecurityPolicy policy(lattice);
  policy.set_execution_clearance({hi, std::nullopt, lo});
  dift::DiftContext ctx(lattice);
  using Ops = rv::WordOps<rv::TaintedWord>;

  TaintVm vm;
  rvasm::Assembler a(TaintVm::kBase);
  a.label("top");
  a.addi(a0, a0, 1);
  a.addi(a1, a1, 2);
  a.label("ld");
  a.lw(a2, s5, 0);  // s5 carries the address; its tag decides
  a.addi(a3, a3, 1);
  a.j("top");
  const auto p = a.assemble();
  vm.load(p);
  vm.core.set_policy(&policy);
  const std::uint32_t addr = static_cast<std::uint32_t>(TaintVm::kBase + 0x8000);
  vm.core.set_reg(s5, Ops::make(addr, lo));
  vm.core.run(10);  // two iterations: a cold dispatch, then a chained one
  const auto& s = vm.core.stats();
  ASSERT_EQ(vm.core.instret(), 10u);
  ASSERT_EQ(s.decode_hits, 5u);
  ASSERT_EQ(s.fetch_summary_hits, 10u);

  vm.core.set_reg(s5, Ops::make(addr, hi));
  try {
    vm.core.run(10);
    ADD_FAILURE() << "HI load address was not refused";
  } catch (const dift::PolicyViolation& v) {
    EXPECT_EQ(v.kind(), dift::ViolationKind::kMemAddrClearance);
    EXPECT_EQ(v.pc(), p.symbol("ld"));
  }
  EXPECT_EQ(vm.core.instret(), 12u);
  EXPECT_EQ(vm.core.pc(), p.symbol("ld"));
  EXPECT_EQ(s.decode_hits, 8u);
  EXPECT_EQ(s.fetch_summary_hits, 13u);
  EXPECT_EQ(vm.reg(a0), 3u);
  EXPECT_EQ(vm.reg(a1), 6u);
  EXPECT_EQ(vm.reg(a3), 2u);
}

}  // namespace
