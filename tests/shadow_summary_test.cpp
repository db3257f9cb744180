// Shadow-tag summary layer: block-summary invariants, coherence with the
// per-byte tag plane, and the engine counters plumbed into vp::RunResult.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "dift/context.hpp"
#include "dift/policy.hpp"
#include "dift/shadow.hpp"
#include "dift/stats.hpp"
#include "fw/benchmarks.hpp"
#include "micro_vm.hpp"
#include "soc/memory.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/payload.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using dift::kBottomTag;
using dift::ShadowSummary;
using dift::Tag;

constexpr std::size_t kB = ShadowSummary::kBlockBytes;

TEST(ShadowSummary, AttachScansThePlane) {
  std::vector<Tag> plane(4 * kB, kBottomTag);
  std::fill(plane.begin() + kB, plane.begin() + 2 * kB, Tag(3));
  plane[2 * kB + 5] = Tag(1);  // one odd byte makes block 2 mixed
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  ASSERT_EQ(s.block_count(), 4u);
  EXPECT_EQ(s.block_summary(0), kBottomTag);
  EXPECT_EQ(s.block_summary(1), 3u);
  EXPECT_EQ(s.block_summary(2), ShadowSummary::kMixed);
  EXPECT_EQ(s.block_summary(3), kBottomTag);
}

TEST(ShadowSummary, ClassifyMakesBlocksUniform) {
  std::vector<Tag> plane(4 * kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  std::fill(plane.begin(), plane.begin() + 2 * kB, Tag(2));
  s.on_classify(0, 2 * kB, Tag(2));
  Tag t = kBottomTag;
  ASSERT_TRUE(s.uniform(0, 2 * kB, &t));
  EXPECT_EQ(t, Tag(2));
  // A query spanning differing-but-uniform blocks must fail.
  EXPECT_FALSE(s.uniform(2 * kB - 4, 8, &t));
}

TEST(ShadowSummary, PartialStoreWithDifferingTagMixesTheBlock) {
  std::vector<Tag> plane(2 * kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  plane[10] = Tag(1);
  s.on_store(10, 1, Tag(1));
  EXPECT_EQ(s.block_summary(0), ShadowSummary::kMixed);
  Tag t;
  EXPECT_FALSE(s.uniform(0, 4, &t));
  // The untouched neighbour block stays uniform.
  ASSERT_TRUE(s.uniform(kB, 4, &t));
  EXPECT_EQ(t, kBottomTag);
}

TEST(ShadowSummary, FullBlockOverwriteReUniforms) {
  std::vector<Tag> plane(2 * kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  plane[3] = Tag(1);
  s.on_store(3, 1, Tag(1));
  ASSERT_EQ(s.block_summary(0), ShadowSummary::kMixed);
  std::fill(plane.begin(), plane.begin() + kB, Tag(2));
  s.on_store(0, kB, Tag(2));
  EXPECT_EQ(s.block_summary(0), 2u);
  Tag t;
  ASSERT_TRUE(s.uniform(0, kB, &t));
  EXPECT_EQ(t, Tag(2));
}

TEST(ShadowSummary, MatchingTagStoreKeepsBlockUniform) {
  std::vector<Tag> plane(kB, Tag(4));
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  s.on_store(8, 4, Tag(4));  // same tag: nothing changes
  EXPECT_EQ(s.block_summary(0), 4u);
}

TEST(ShadowSummary, StoreBytesRescansTheWrittenRun) {
  std::vector<Tag> plane(2 * kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  // Differing bytes arrive via a bulk write (DMA-style).
  plane[0] = Tag(1);
  plane[1] = Tag(2);
  s.on_store_bytes(0, 2);
  EXPECT_EQ(s.block_summary(0), ShadowSummary::kMixed);
  // A full-block uniform bulk write re-uniforms it.
  std::fill(plane.begin(), plane.begin() + kB, Tag(5));
  s.on_store_bytes(0, kB);
  EXPECT_EQ(s.block_summary(0), 5u);
}

TEST(ShadowSummary, ZeroLengthQueryIsNotUniform) {
  std::vector<Tag> plane(kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  Tag t;
  EXPECT_FALSE(s.uniform(0, 0, &t));
}

// A partial store into an already-mixed block returns early; a store that
// covers a short last block whole must still re-uniform it.
TEST(ShadowSummary, MixedBlockExitKeepsShortLastBlockExact) {
  std::vector<Tag> plane(kB + 4, kBottomTag);  // last block: 4 bytes
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  plane[kB + 1] = Tag(1);
  s.on_store(kB + 1, 1, Tag(1));
  ASSERT_EQ(s.block_summary(1), ShadowSummary::kMixed);
  // Partial store ending before the plane's end: stays mixed.
  plane[kB] = plane[kB + 1] = plane[kB + 2] = Tag(2);
  s.on_store(kB, 3, Tag(2));
  EXPECT_EQ(s.block_summary(1), ShadowSummary::kMixed);
  // Partial store reaching the plane's end but not the block's start.
  plane[kB + 2] = plane[kB + 3] = Tag(2);
  s.on_store(kB + 2, 2, Tag(2));
  EXPECT_EQ(s.block_summary(1), ShadowSummary::kMixed);
  // Word store covering the whole short block: re-uniform.
  std::fill(plane.begin() + kB, plane.end(), Tag(3));
  s.on_store(kB, 4, Tag(3));
  EXPECT_EQ(s.block_summary(1), 3u);
  // A full-size mixed block is untouched by a partial store.
  plane[7] = Tag(1);
  s.on_store(7, 1, Tag(1));
  ASSERT_EQ(s.block_summary(0), ShadowSummary::kMixed);
  plane[60] = plane[61] = plane[62] = plane[63] = Tag(2);
  s.on_store(60, 4, Tag(2));
  EXPECT_EQ(s.block_summary(0), ShadowSummary::kMixed);
}

// The coherence invariant the readers rely on: a uniform summary never
// disagrees with the plane. Checked against soc::Memory after classification
// and transport-level writes.
void expect_coherent(soc::Memory& ram) {
  const ShadowSummary& s = ram.shadow();
  const Tag* plane = ram.tags();
  ASSERT_NE(plane, nullptr);
  for (std::size_t b = 0; b < s.block_count(); ++b) {
    const std::uint16_t sum = s.block_summary(b);
    if (sum == ShadowSummary::kMixed) continue;  // conservative: always safe
    const std::size_t base = b * kB;
    const std::size_t end = std::min(base + kB, ram.size());
    for (std::size_t i = base; i < end; ++i)
      ASSERT_EQ(plane[i], static_cast<Tag>(sum))
          << "block " << b << " byte " << i;
  }
}

TEST(ShadowSummary, MemoryKeepsSummaryCoherent) {
  sysc::Simulation sim;
  soc::Memory ram(sim, "ram", 1024, /*track_tags=*/true);
  ram.classify(128, 64, Tag(2));
  expect_coherent(ram);

  // Tainted transport write with mixed tags.
  std::uint8_t buf[4] = {1, 2, 3, 4};
  Tag tags[4] = {Tag(1), Tag(1), Tag(2), Tag(1)};
  tlmlite::Payload p;
  p.command = tlmlite::Command::kWrite;
  p.address = 200;
  p.data = buf;
  p.tags = tags;
  p.length = 4;
  sysc::Time d;
  ram.socket().b_transport(p, d);
  ASSERT_TRUE(p.ok());
  expect_coherent(ram);

  // Uniform read of a classified region reports a summary hit.
  const std::uint64_t hits_before = ram.summary_hits();
  Tag rtags[4] = {};
  p.command = tlmlite::Command::kRead;
  p.address = 128;
  p.tags = rtags;
  ram.socket().b_transport(p, d);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(rtags[0], Tag(2));
  EXPECT_GT(ram.summary_hits(), hits_before);
  expect_coherent(ram);
}

// End-to-end: a Table II workload on the VP+ exercises every counter, and
// the summary stays coherent with the tag plane across a full firmware run.
TEST(DiftStats, QsortRunPopulatesCounters) {
  vp::VpDift v;
  v.load(fw::make_qsort(400, 0xc0ffee));
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  const auto r = v.run(sysc::Time::sec(60));
  ASSERT_TRUE(r.exited());
  ASSERT_EQ(r.exit_code, 0u);

  EXPECT_GT(r.stats.fetch_summary_hits, 0u);
  EXPECT_GT(r.stats.load_summary_hits, 0u);
  // lub_calls counts only mixed-tag combinations (the a==b fast path is
  // free); qsort touches no classified data, so it is legitimately zero.
  EXPECT_GT(r.stats.flow_checks, 0u);
  EXPECT_GT(r.stats.bus_transactions, 0u);
  EXPECT_GT(r.stats.decode_hits, 0u);
  EXPECT_GT(r.stats.decode_misses, 0u);
  EXPECT_EQ(r.stats.summary_hits(),
            r.stats.fetch_summary_hits + r.stats.load_summary_hits +
                r.stats.mem_summary_hits + r.stats.dma_summary_hits);
  // Permissive policy, no classified data: the taint-liveness gate keeps
  // the whole run on the plain-word variant and never needs to promote.
  EXPECT_GT(r.stats.plain_variant_hits, 0u);
  EXPECT_EQ(r.stats.tainted_variant_hits, 0u);
  EXPECT_EQ(r.stats.variant_promotions, 0u);
  expect_coherent(v.ram());
}

// The plain VP tracks no tags: every DIFT counter must stay zero except the
// structural ones (decode cache, bus traffic).
TEST(DiftStats, PlainVpKeepsTagCountersZero) {
  vp::Vp v;
  v.load(fw::make_primes(500));
  const auto r = v.run(sysc::Time::sec(60));
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.stats.lub_calls, 0u);
  EXPECT_EQ(r.stats.flow_checks, 0u);
  EXPECT_EQ(r.stats.fetch_summary_hits, 0u);
  EXPECT_EQ(r.stats.load_summary_hits, 0u);
  // The plain core has no variants to pick between — both variant counters
  // (and the promotion counter) must read zero, not go stale.
  EXPECT_EQ(r.stats.plain_variant_hits, 0u);
  EXPECT_EQ(r.stats.tainted_variant_hits, 0u);
  EXPECT_EQ(r.stats.variant_promotions, 0u);
  EXPECT_GT(r.stats.bus_transactions, 0u);
  EXPECT_GT(r.stats.decode_hits, 0u);
}

// Snapshot restore writes tag pages behind the summary's back; restore()
// must rescan what it wrote so later uniform() answers stay truthful.
TEST(ShadowSummary, SnapshotRestoreRebuildsSummary) {
  vp::VpDift v;
  v.load(fw::make_primes(200));
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  const auto snap = v.snapshot();
  const auto r = v.run(sysc::Time::sec(60));
  ASSERT_TRUE(r.exited());
  v.restore(snap);
  expect_coherent(v.ram());
}

// ---------------------------------------------------------------------------
// Live-taint memory path of the tainted core: DMI loads and stores through
// uniform and mixed shadow blocks, and the out-of-line violation path of
// dift::check_flow().
// ---------------------------------------------------------------------------

using namespace vpdift::rvasm::reg;
using TaintVm = testutil::MicroVm<rv::TaintedWord>;
using TaintOps = rv::WordOps<rv::TaintedWord>;

// A live policy over a powerset lattice, so differing tags really combine.
// The memory-address clearance is ⊤: every access pays exactly one counted
// flow check (⊥ address -> ⊤) and none fires.
class LiveMemoryPath : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kData = 0x8000;  // block-aligned RAM offset
  static constexpr std::int64_t kLo = -4;         // offsets probed, relative
  static constexpr std::int64_t kHi = std::int64_t(kB);  // to kData

  dift::Lattice lattice_ = dift::Lattice::powerset({"a", "b", "c"});
  dift::DiftContext ctx_{lattice_};
  dift::SecurityPolicy policy_{lattice_};
  TaintVm vm_;
  rvasm::Program prog_;
  Tag ta_ = kBottomTag, tb_ = kBottomTag, tc_ = kBottomTag, top_ = kBottomTag;

  void SetUp() override {
    ta_ = lattice_.tag_of("{a}");
    tb_ = lattice_.tag_of("{b}");
    tc_ = lattice_.tag_of("{c}");
    for (std::size_t t = 0; t < lattice_.size(); ++t)
      top_ = lattice_.lub(top_, static_cast<Tag>(t));
    set_mem_addr_clearance(top_);
    rvasm::Assembler a(TaintVm::kBase);
    a.label("lb");
    a.lb(a1, a0, 0);
    a.label("lbu");
    a.lbu(a1, a0, 0);
    a.label("lh");
    a.lh(a1, a0, 0);
    a.label("lhu");
    a.lhu(a1, a0, 0);
    a.label("lw");
    a.lw(a1, a0, 0);
    a.label("sb");
    a.sb(a1, a0, 0);
    a.label("sh");
    a.sh(a1, a0, 0);
    a.label("sw");
    a.sw(a1, a0, 0);
    a.label("spin");
    a.j("spin");
    prog_ = a.assemble();
    vm_.load(prog_);
  }

  void set_mem_addr_clearance(Tag t) {
    dift::ExecutionClearance ec;
    ec.mem_addr = t;
    policy_.set_execution_clearance(ec);
    vm_.core.set_policy(&policy_);
  }

  static std::uint8_t data_byte(std::int64_t i) {
    return static_cast<std::uint8_t>(0x5a + 37 * (i + 64));
  }

  // Rewrites data and tags of the three blocks [kData - kB, kData + 2 kB)
  // (tags from `tag_at`, offsets relative to kData) and rescans the summary.
  void set_window(const std::function<Tag(std::int64_t)>& tag_at) {
    for (std::int64_t i = -std::int64_t(kB); i < 2 * std::int64_t(kB); ++i) {
      vm_.ram.data()[kData + i] = data_byte(i);
      vm_.ram.tags()[kData + i] = tag_at(i);
    }
    vm_.ram.rebuild_summary();
  }

  // The three shadow states around the probed block (offsets 0..63); the
  // neighbour blocks stay uniformly ⊥ so boundary-crossing accesses combine
  // differing blocks.
  std::vector<std::function<Tag(std::int64_t)>> states() const {
    const Tag ta = ta_, tb = tb_, tc = tc_;
    auto in_block = [](std::int64_t i) { return i >= 0 && i < std::int64_t(kB); };
    return {
        // uniform: the whole block carries {b}
        [=](std::int64_t i) { return in_block(i) ? tb : kBottomTag; },
        // mixed, equal bytes almost everywhere: two odd bytes far apart
        [=](std::int64_t i) {
          if (!in_block(i)) return kBottomTag;
          return i == 0 || i == 32 ? tc : tb;
        },
        // mixed, differing bytes: every 2-byte run holds two classes
        [=](std::int64_t i) {
          if (!in_block(i)) return kBottomTag;
          const Tag cycle[3] = {ta, tb, tc};
          return cycle[i % 3];
        },
    };
  }

  std::uint32_t addr_of(std::int64_t i) const {
    return static_cast<std::uint32_t>(TaintVm::kBase + kData + i);
  }

  void run_one(const char* label, std::uint32_t addr, Tag addr_tag,
               std::uint32_t a1v = 0, Tag a1t = kBottomTag) {
    vm_.core.set_reg(a0, dift::Taint<std::uint32_t>(addr, addr_tag));
    vm_.core.set_reg(a1, dift::Taint<std::uint32_t>(a1v, a1t));
    vm_.core.set_pc(static_cast<std::uint32_t>(prog_.symbol(label)));
    vm_.core.run(1);
  }
};

TEST_F(LiveMemoryPath, LoadTagIsByteLubAndCountersFollowPerByteRule) {
  struct Form {
    const char* label;
    std::uint32_t size;
    bool sign;
  };
  const Form forms[] = {{"lb", 1, true}, {"lbu", 1, false}, {"lh", 2, true},
                        {"lhu", 2, false}, {"lw", 4, false}};
  const ShadowSummary& shadow = vm_.ram.shadow();
  int state_no = 0;
  for (const auto& state : states()) {
    set_window(state);
    for (const Form& f : forms) {
      for (std::int64_t o = kLo; o <= kHi; ++o) {
        SCOPED_TRACE(::testing::Message() << "state " << state_no << " "
                                          << f.label << " at " << o);
        // Reference: value from the bytes, tag and LUB count by the per-byte
        // rule, summary hit iff every touched block is one identical tag.
        std::uint32_t want_v = 0;
        Tag want_t = state(o);
        std::uint64_t want_lubs = 0;
        for (std::uint32_t i = 0; i < f.size; ++i) {
          want_v |= std::uint32_t(data_byte(o + i)) << (8 * i);
          const Tag bt = state(o + i);
          if (i > 0 && bt != want_t) {
            ++want_lubs;
            want_t = lattice_.lub(want_t, bt);
          }
        }
        if (f.sign && f.size == 1)
          want_v = static_cast<std::uint32_t>(static_cast<std::int8_t>(want_v));
        if (f.sign && f.size == 2)
          want_v = static_cast<std::uint32_t>(static_cast<std::int16_t>(want_v));
        const std::size_t off = static_cast<std::size_t>(kData + o);
        const std::uint16_t s0 = shadow.block_summary(off / kB);
        const bool want_hit =
            s0 != ShadowSummary::kMixed &&
            shadow.block_summary((off + f.size - 1) / kB) == s0;
        if (want_hit) want_lubs = 0;

        const std::uint64_t lubs = ctx_.lub_calls();
        const std::uint64_t checks = testutil::flow_checks(vm_.core);
        const std::uint64_t hits = vm_.core.stats().load_summary_hits;
        run_one(f.label, addr_of(o), kBottomTag);
        EXPECT_EQ(vm_.reg(a1), want_v);
        EXPECT_EQ(vm_.tag(a1), want_t);
        EXPECT_EQ(ctx_.lub_calls() - lubs, want_lubs);
        EXPECT_EQ(testutil::flow_checks(vm_.core) - checks, 1u);
        EXPECT_EQ(vm_.core.stats().load_summary_hits - hits, want_hit ? 1u : 0u);
      }
    }
    ++state_no;
  }
  // Live taint in the plane: every access ran the tainted variant.
  EXPECT_EQ(vm_.core.stats().plain_variant_hits, 0u);
  EXPECT_GT(vm_.core.stats().tainted_variant_hits, 0u);
}

TEST_F(LiveMemoryPath, StoresKeepPlaneAndSummaryExact) {
  struct Form {
    const char* label;
    std::uint32_t size;
  };
  const Form forms[] = {{"sb", 1}, {"sh", 2}, {"sw", 4}};
  ShadowSummary& shadow = vm_.ram.shadow();
  const Tag* plane = vm_.ram.tags();
  const std::uint8_t* data = vm_.ram.data();
  const std::uint32_t value = 0xa1b2c3d4u;
  int state_no = 0;
  for (const auto& state : states()) {
    for (const Form& f : forms) {
      for (const Tag t : {kBottomTag, tb_, tc_}) {
        for (std::int64_t o = kLo; o <= kHi; ++o) {
          SCOPED_TRACE(::testing::Message()
                       << "state " << state_no << " " << f.label << " tag "
                       << int(t) << " at " << o);
          set_window(state);
          const std::uint64_t lubs = ctx_.lub_calls();
          const std::uint64_t checks = testutil::flow_checks(vm_.core);
          run_one(f.label, addr_of(o), kBottomTag, value, t);
          EXPECT_EQ(ctx_.lub_calls() - lubs, 0u);
          EXPECT_EQ(testutil::flow_checks(vm_.core) - checks, 1u);
          for (std::int64_t i = -std::int64_t(kB); i < 2 * std::int64_t(kB); ++i) {
            const bool hit = i >= o && i < o + std::int64_t(f.size);
            const auto k = static_cast<std::size_t>(kData + i);
            ASSERT_EQ(plane[k], hit ? t : state(i)) << "tag byte " << i;
            ASSERT_EQ(data[k], hit ? static_cast<std::uint8_t>(value >> (8 * (i - o)))
                                   : data_byte(i))
                << "data byte " << i;
          }
          const std::size_t off = static_cast<std::size_t>(kData + o);
          for (std::size_t b = off / kB; b <= (off + f.size - 1) / kB; ++b) {
            const std::uint16_t before = shadow.block_summary(b);
            EXPECT_EQ(shadow.rescan_block(b), before) << "block " << b;
          }
        }
      }
    }
    ++state_no;
  }
}

TEST_F(LiveMemoryPath, ProtectedStoreRaisesAtExactPc) {
  policy_.protect_store(TaintVm::kBase + kData, kB, ta_);
  vm_.core.set_policy(&policy_);
  set_window(states()[0]);
  const std::uint32_t addr = addr_of(8);
  try {
    run_one("sw", addr, kBottomTag, 0x1234, tb_);  // {b} may not flow to {a}
    FAIL() << "expected a store-clearance violation";
  } catch (const dift::PolicyViolation& v) {
    EXPECT_EQ(v.kind(), dift::ViolationKind::kStoreClearance);
    EXPECT_EQ(v.pc(), prog_.symbol("sw"));
    EXPECT_EQ(v.address(), addr);
    EXPECT_EQ(v.source(), tb_);
    EXPECT_EQ(v.required(), ta_);
  }
  // The store did not happen.
  EXPECT_EQ(vm_.ram.tags()[kData + 8], tb_);
  EXPECT_EQ(vm_.ram.data()[kData + 8], data_byte(8));
  // An admitted tag stores normally under protection.
  run_one("sw", addr, kBottomTag, 0x1234, ta_);
  EXPECT_EQ(vm_.ram.tags()[kData + 8], ta_);
  EXPECT_EQ(vm_.ram.data()[kData + 8], 0x34);
}

TEST_F(LiveMemoryPath, MemAddrViolationKeepsItsFieldsEnforceAndMonitor) {
  set_mem_addr_clearance(ta_);
  set_window(states()[0]);
  const std::uint32_t addr = addr_of(4);
  for (const char* label : {"lw", "sw"}) {
    SCOPED_TRACE(label);
    try {
      run_one(label, addr, tb_);
      FAIL() << "expected a memaddr violation";
    } catch (const dift::PolicyViolation& v) {
      EXPECT_EQ(v.kind(), dift::ViolationKind::kMemAddrClearance);
      EXPECT_EQ(v.pc(), prog_.symbol(label));
      EXPECT_EQ(v.address(), addr);
      EXPECT_EQ(v.where(), "core.lsu");
      EXPECT_EQ(v.source(), tb_);
      EXPECT_EQ(v.required(), ta_);
    }
  }
  ctx_.set_monitor_mode(true);
  run_one("lw", addr, tb_);
  run_one("sw", addr, tb_, 0x77, tc_);
  ASSERT_EQ(ctx_.recorded().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& r = ctx_.recorded()[i];
    EXPECT_EQ(r.kind, dift::ViolationKind::kMemAddrClearance);
    EXPECT_EQ(r.pc, prog_.symbol(i == 0 ? "lw" : "sw"));
    EXPECT_EQ(r.address, addr);
    EXPECT_EQ(r.where, "core.lsu");
    EXPECT_EQ(r.source, tb_);
    EXPECT_EQ(r.required, ta_);
  }
  // Monitor mode lets both accesses complete.
  EXPECT_EQ(vm_.tag(a1), tc_);
  EXPECT_EQ(vm_.ram.tags()[kData + 4], tc_);
  EXPECT_EQ(vm_.ram.data()[kData + 4], 0x77);
}

TEST(LiveMemoryPathNoContext, CheckFlowWithoutContextThrows) {
  ASSERT_EQ(dift::DiftContext::active(), nullptr);
  EXPECT_THROW(dift::check_flow(Tag(1), Tag(0), dift::ViolationKind::kMemAddrClearance),
               dift::LatticeError);
}

}  // namespace
