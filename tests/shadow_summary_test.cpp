// Shadow-tag summary layer: block-summary invariants, coherence with the
// per-byte tag plane, and the engine counters plumbed into vp::RunResult.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dift/shadow.hpp"
#include "dift/stats.hpp"
#include "fw/benchmarks.hpp"
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
  const std::uint64_t gen = s.generation();
  s.on_store(8, 4, Tag(4));  // same tag: nothing changes
  EXPECT_EQ(s.block_summary(0), 4u);
  EXPECT_EQ(s.generation(), gen);
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

TEST(ShadowSummary, GenerationBumpsOnlyOnSummaryChange) {
  std::vector<Tag> plane(2 * kB, kBottomTag);
  ShadowSummary s;
  s.attach(plane.data(), plane.size());
  const std::uint64_t g0 = s.generation();
  plane[0] = Tag(1);
  s.on_store(0, 1, Tag(1));  // uniform -> mixed: bump
  const std::uint64_t g1 = s.generation();
  EXPECT_GT(g1, g0);
  plane[1] = Tag(2);
  s.on_store(1, 1, Tag(2));  // already mixed: no bump
  EXPECT_EQ(s.generation(), g1);
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

// Snapshot restore memcpys the tag plane behind the summary's back; restore()
// must rebuild it so later uniform() answers stay truthful.
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

}  // namespace
