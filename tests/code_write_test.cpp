// Code-write tracking and deferred retirement in the block engine.
//
// A translated block is trusted on entry while the memory's code-write epoch
// equals the epoch it recorded; every writer of a marked code line moves the
// epoch, so the next entry compares the block's bytes and re-translates it
// when they changed. Each CodeWriteTracking test runs translated code,
// writes it through one writer, runs again, and checks the result and the
// exact block_invalidations count.
//
// The threaded chain retires its micro-ops once, at chain exit. The
// DeferredRetirement tests pin what that must not change: the counter CSRs
// read the exact count mid-chain, and a clearance violation raised by an
// MMIO store in the middle of a chain carries the store's pc and leaves the
// exact retirement count behind.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "dift/context.hpp"
#include "dift/policy_parser.hpp"
#include "fi/injector.hpp"
#include "micro_vm.hpp"
#include "rv/csr.hpp"
#include "soc/addrmap.hpp"
#include "soc/dma.hpp"
#include "soc/uart.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using testutil::MicroVm;
using Vm = MicroVm<rv::PlainWord>;

// addi a0, zero, 1 / addi a0, zero, 99: the callee body and its patch.
constexpr std::uint32_t kAddiA0Zero1 = 0x00100513;
constexpr std::uint32_t kAddiA0Zero99 = 0x06300513;
// Each loop iteration retires five instructions (jal, addi, ret, add, j) and
// ends back at "top".
constexpr std::uint64_t kIterInsns = 5;

// top: call fn / add s0, s0, a0 / j top;  fn: addi a0, zero, 1 / ret.
// Three blocks: {jal}, {addi, ret} and {add, j}; after the first iteration
// each is entered through its predecessor's chain.
void emit_call_loop(rvasm::Assembler& a, std::uint32_t fn_body = kAddiA0Zero1) {
  a.label("top");
  a.call("fn");
  a.add(s0, s0, a0);
  a.j("top");
  a.align(64);  // fn on a code line of its own
  a.label("fn");
  a.word(fn_body);
  a.ret();
}

rvasm::Program call_loop(std::uint32_t fn_body = kAddiA0Zero1) {
  rvasm::Assembler a(Vm::kBase);
  emit_call_loop(a, fn_body);
  return a.assemble();
}

std::uint64_t fn_off(const rvasm::Program& p) { return p.symbol("fn") - Vm::kBase; }

/// Runs the loop for `iters` iterations, lets `write` patch the callee to
/// `addi a0, zero, 99`, runs as many again, and checks that the second half
/// ran the new body and that exactly one block (the callee's) re-translated.
void expect_patch_runs_new_body(
    const std::function<void(Vm&, const rvasm::Program&)>& write) {
  constexpr std::uint64_t kIters = 10;
  Vm vm;
  const auto p = call_loop();
  vm.load(p);
  vm.core.run(kIters * kIterInsns);
  ASSERT_EQ(vm.reg(s0), kIters);
  const auto& s = vm.core.stats();
  ASSERT_EQ(s.block_invalidations, 0u);
  ASSERT_GT(s.chained_transfers, 0u);
  const auto misses = s.decode_misses;

  write(vm, p);
  vm.core.run(kIters * kIterInsns);
  EXPECT_EQ(vm.reg(s0), kIters + kIters * 99);
  EXPECT_EQ(s.block_invalidations, 1u);
  EXPECT_EQ(s.decode_misses, misses + 2);  // the callee's two ops
}

// A guest store into a block other than the executing one: the DMI store
// hits a marked line and moves the epoch.
TEST(CodeWriteTracking, DmiStoreIntoAnotherBlockRetranslatesIt) {
  constexpr std::int64_t kIters = 10;
  Vm vm;
  rvasm::Assembler a(Vm::kBase);
  a.la(t0, "fn");
  a.li(t1, kAddiA0Zero99);
  a.li(t2, kIters);
  a.label("top");
  a.call("fn");
  a.add(s0, s0, a0);
  a.addi(s1, s1, 1);
  a.bne(s1, t2, "top");
  a.sw(t1, t0, 0);  // patch the callee once, after kIters calls
  a.j("top");
  a.align(64);
  a.label("fn");
  a.word(kAddiA0Zero1);
  a.ret();
  vm.load(a.assemble());
  // Set-up (5), kIters iterations (6 each), the patch block (2), and
  // kIters - 1 more iterations (the last bne falls through to the patch).
  vm.core.run(5 + kIters * 6 + 2 + (kIters - 1) * 6);
  EXPECT_EQ(vm.reg(s0), std::uint32_t(kIters + (kIters - 1) * 99));
  EXPECT_EQ(vm.core.stats().block_invalidations, 1u);
}

// A store that writes a code line with the bytes it already holds moves the
// epoch, but the compare on the next entry finds the block unchanged.
TEST(CodeWriteTracking, StoreOfIdenticalBytesCountsNoInvalidation) {
  constexpr std::int64_t kIters = 20;
  Vm vm;
  rvasm::Assembler a(Vm::kBase);
  a.la(t0, "fn");
  a.li(t1, kAddiA0Zero1);
  a.li(t2, kIters);
  a.label("top");
  a.call("fn");
  a.add(s0, s0, a0);
  a.sw(t1, t0, 0);  // rewrite the callee's first word, unchanged
  a.addi(s1, s1, 1);
  a.bne(s1, t2, "top");
  a.label("spin");
  a.j("spin");
  a.align(64);
  a.label("fn");
  a.word(kAddiA0Zero1);
  a.ret();
  vm.load(a.assemble());
  vm.core.run(5 + kIters * 7);
  EXPECT_EQ(vm.reg(s0), std::uint32_t(kIters));
  const auto& s = vm.core.stats();
  EXPECT_EQ(s.block_invalidations, 0u);
  EXPECT_GT(s.chained_transfers, 0u);
}

TEST(CodeWriteTracking, WriteU32RetranslatesBlock) {
  expect_patch_runs_new_body([](Vm& vm, const rvasm::Program& p) {
    vm.ram.write_u32(fn_off(p), kAddiA0Zero99);
  });
}

TEST(CodeWriteTracking, RestoreRetranslatesBlock) {
  expect_patch_runs_new_body([](Vm& vm, const rvasm::Program&) {
    // The same image with the patched callee, restored over RAM.
    Vm other;
    other.load(call_loop(kAddiA0Zero99));
    vm.ram.restore(other.ram.save_data(), soc::SparsePlane());
  });
}

TEST(CodeWriteTracking, DataPointerWriteRetranslatesBlock) {
  expect_patch_runs_new_body([](Vm& vm, const rvasm::Program& p) {
    std::memcpy(vm.ram.data() + fn_off(p), &kAddiA0Zero99, 4);
  });
}

// DMA copies a new callee body over code that already ran. The copy goes
// through the memory's bus transport, which moves the epoch.
template <typename W>
void dma_into_code_retranslates() {
  namespace am = soc::addrmap;
  constexpr std::int64_t kIters = 10;
  rvasm::Assembler a(am::kRamBase);
  a.li(s2, kIters);
  a.label("warm");
  a.call("fn");
  a.add(s0, s0, a0);
  a.addi(s1, s1, 1);
  a.bne(s1, s2, "warm");
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
  a.add(s0, s0, a0);
  a.label("spin");
  a.j("spin");
  a.align(64);
  a.label("fn");
  a.word(kAddiA0Zero1);
  a.ret();
  a.label("new_body");
  a.word(kAddiA0Zero99);

  vp::VirtualPrototype<W> v;
  v.load(a.assemble());
  (void)v.run(sysc::Time::ms(1));
  EXPECT_EQ(rv::WordOps<W>::value(v.core().reg(s0)), std::uint32_t(kIters + 99));
  EXPECT_EQ(v.core().stats().block_invalidations, 1u);
}

TEST(CodeWriteTracking, DmaIntoCodeRetranslates) {
  {
    SCOPED_TRACE("VP");
    dma_into_code_retranslates<rv::PlainWord>();
  }
  {
    SCOPED_TRACE("VP+");
    dma_into_code_retranslates<rv::TaintedWord>();
  }
}

// A kRamFlip fault fired mid-run flips a bit of the callee's immediate: the
// flip goes through Memory::flip_bits, which moves the epoch.
TEST(CodeWriteTracking, RamFlipFaultIntoCodeRetranslates) {
  constexpr std::uint64_t kIters = 10;
  namespace am = soc::addrmap;
  rvasm::Assembler a(am::kRamBase);
  emit_call_loop(a);
  const auto p = a.assemble();
  vp::VpDift v;
  v.load(p);
  fi::FaultSpec f;
  f.model = fi::FaultModel::kRamFlip;
  f.trigger_instret = kIters * kIterInsns;
  f.offset = p.symbol("fn") - am::kRamBase + 3;  // imm[11:4]
  f.bits = 0x02;                                  // imm bit 5: 1 -> 33
  fi::arm(v, f);
  v.core().run(2 * kIters * kIterInsns);
  EXPECT_FALSE(v.core().fault_armed());
  EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(v.core().reg(s0)),
            std::uint32_t(kIters + kIters * 33));
  EXPECT_EQ(v.core().stats().block_invalidations, 1u);
}

// A keep-translations re-arm that reloads different code bytes: the warm
// callee block must be re-translated, the unchanged ones kept.
TEST(CodeWriteTracking, KeepTranslationsRearmWithNewBytesRetranslates) {
  constexpr std::uint64_t kIters = 10;
  namespace am = soc::addrmap;
  const auto image = [](std::uint32_t fn_body) {
    rvasm::Assembler a(am::kRamBase);
    emit_call_loop(a, fn_body);
    return a.assemble();
  };
  vp::Vp v;
  v.load(image(kAddiA0Zero1));
  v.core().run(kIters * kIterInsns);
  ASSERT_EQ(v.core().reg(s0), kIters);
  const auto& s = v.core().stats();
  const auto misses = s.decode_misses;

  v.reset(/*keep_translations=*/true);
  v.load(image(kAddiA0Zero99));
  v.core().run(kIters * kIterInsns);
  EXPECT_EQ(v.core().reg(s0), kIters * 99);
  EXPECT_EQ(s.block_invalidations, 1u);
  EXPECT_EQ(s.decode_misses, misses + 2);
}

// ---------------------------------------------------------------------------
// Deferred retirement.
// ---------------------------------------------------------------------------

// `csrr instret` ending a block of k ops reads k; the next block's `csrr
// cycle` reads k + 1, and after three more ops `csrr minstret` k + 5. Pinned
// on the VP and on both VP+ variants.
template <typename W>
void expect_counter_csrs_exact(bool tainted_dispatch) {
  constexpr int kOps = 11;
  MicroVm<W> vm;
  rvasm::Assembler a(MicroVm<W>::kBase);
  for (int i = 0; i < kOps; ++i) a.addi(a0, a0, 1);
  a.csrrs(a1, rv::csr::kInstret, zero);
  a.csrrs(a2, rv::csr::kCycle, zero);
  a.addi(a3, a3, 1);
  a.addi(a3, a3, 1);
  a.addi(a3, a3, 1);
  a.csrrs(a4, rv::csr::kMinstret, zero);
  a.label("spin");
  a.j("spin");
  vm.load(a.assemble());
  if (tainted_dispatch) vm.core.set_reg(s5, rv::WordOps<W>::make(0, dift::Tag{1}));
  vm.core.run(kOps + 6);
  EXPECT_EQ(vm.reg(a1), std::uint32_t(kOps));
  EXPECT_EQ(vm.reg(a2), std::uint32_t(kOps + 1));
  EXPECT_EQ(vm.reg(a4), std::uint32_t(kOps + 5));
  EXPECT_EQ(vm.core.instret(), std::uint64_t(kOps + 6));
  if constexpr (rv::WordOps<W>::kTainted) {
    const auto& s = vm.core.stats();
    EXPECT_EQ(s.plain_variant_hits == 0, tainted_dispatch);
    EXPECT_EQ(s.tainted_variant_hits == 0, !tainted_dispatch);
  }
}

TEST(DeferredRetirement, CounterCsrsReadExactCountMidChain) {
  {
    SCOPED_TRACE("VP");
    expect_counter_csrs_exact<rv::PlainWord>(false);
  }
  {
    SCOPED_TRACE("VP+ plain variant");
    expect_counter_csrs_exact<rv::TaintedWord>(false);
  }
  {
    SCOPED_TRACE("VP+ tainted variant");
    expect_counter_csrs_exact<rv::TaintedWord>(true);
  }
}

// A HC byte stored to the UART (cleared for LC only) in the middle of a
// block, in a warm chained loop: the violation carries the store's pc, and
// in enforce mode exactly the ops before it retired.
void expect_mmio_violation_pc(bool monitor) {
  namespace am = soc::addrmap;
  rvasm::Assembler a(am::kRamBase);
  a.la(t0, "secret");
  a.li(t2, static_cast<std::int64_t>(am::kUartBase + soc::Uart::kTxData));
  a.li(s2, 5);
  a.label("top");
  a.addi(a0, a0, 1);
  a.addi(s1, s1, 1);
  a.bne(s1, s2, "top");  // five clean iterations warm the loop's chain
  a.lbu(a1, t0, 0);      // HC byte
  a.addi(a2, a2, 1);
  a.label("leak");
  a.sb(a1, t2, 0);       // MMIO store: refused by the UART's clearance
  a.addi(a3, a3, 1);
  a.label("spin");
  a.j("spin");
  a.align(64);
  a.label("secret");
  a.word(0x5a);
  const auto p = a.assemble();
  const auto spec = dift::PolicySpec::parse(
      "class LC\n"
      "class HC\n"
      "flow LC -> HC\n"
      "classify memory $secret 4 HC\n"
      "clear output uart0.tx LC\n",
      &p.symbols);
  vp::VpDift v;
  v.load(p);
  v.apply_policy(spec.policy());
  v.set_monitor_mode(monitor);
  const auto r = v.run(sysc::Time::us(50));
  const std::uint64_t leak = p.symbol("leak");
  // The straight line up to the store runs once, the loop body (three
  // ops) four more times.
  const std::uint64_t before_leak = (leak - am::kRamBase) / 4 + 4 * 3;
  if (monitor) {
    ASSERT_FALSE(r.violation());
    ASSERT_FALSE(r.recorded_violations.empty());
    EXPECT_EQ(r.recorded_violations.front().kind,
              dift::ViolationKind::kOutputClearance);
    EXPECT_EQ(r.recorded_violations.front().pc, leak);
    EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(v.core().reg(a3)), 1u);
  } else {
    ASSERT_TRUE(r.violation());
    EXPECT_EQ(r.violation_kind, dift::ViolationKind::kOutputClearance);
    EXPECT_EQ(r.violation_pc, leak);
    EXPECT_EQ(r.instret, before_leak);
    EXPECT_EQ(v.core().pc(), leak);
    EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(v.core().reg(a2)), 1u);
    EXPECT_EQ(rv::WordOps<rv::TaintedWord>::value(v.core().reg(a3)), 0u);
    // Iterations 3 and 4 replay the cached loop block's first three ops;
    // the fifth replays five more and the refused store, which was fetched
    // and decoded (it counts like on the per-instruction engine) but did
    // not retire.
    EXPECT_EQ(r.stats.decode_hits, 3u + 3u + 6u);
  }
}

TEST(DeferredRetirement, MidChainMmioViolationCarriesExactPc) {
  {
    SCOPED_TRACE("enforce");
    expect_mmio_violation_pc(false);
  }
  {
    SCOPED_TRACE("monitor");
    expect_mmio_violation_pc(true);
  }
}

}  // namespace
