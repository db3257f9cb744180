// soc::Memory's written-page set: every RAM writer marks the pages it
// writes, so an unmarked page is all zero and save_data()/restore()/clear()
// visit only marked pages. The full page scan that save_data() used before
// the set existed is kept here as the oracle.
#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dift/context.hpp"
#include "fi/injector.hpp"
#include "fw/benchmarks.hpp"
#include "micro_vm.hpp"
#include "soc/dma.hpp"
#include "vp/scenarios.hpp"
#include "vp/vp.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;

constexpr std::size_t kPage = soc::SparsePlane::kPageBytes;

/// The non-zero pages of RAM, found by comparing every page with zero.
/// Reads through dmi_data(), which marks nothing.
soc::SparsePlane scan_nonzero_pages(soc::Memory& m) {
  soc::SparsePlane s(m.size());
  const std::uint8_t* ram = m.dmi_data();
  for (std::size_t p = 0, off = 0; off < m.size(); ++p, off += kPage) {
    const std::size_t len = std::min(kPage, m.size() - off);
    if (std::any_of(ram + off, ram + off + len, [](std::uint8_t b) { return b; }))
      s.add_page(p, ram + off);
  }
  return s;
}

/// save_data() holds exactly the pages and bytes the full scan finds.
void expect_save_matches_scan(soc::Memory& m, const char* after) {
  const soc::SparsePlane got = m.save_data();
  const soc::SparsePlane want = scan_nonzero_pages(m);
  ASSERT_EQ(got.pages(), want.pages()) << "after " << after;
  for (std::size_t i = 0; i < got.pages().size(); ++i)
    ASSERT_EQ(std::memcmp(got.held_page(i), want.held_page(i), kPage), 0)
        << "after " << after << ", page " << got.pages()[i];
}

std::vector<std::size_t> marked_pages(const soc::Memory& m) {
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < m.page_count(); ++p)
    if (m.page_written(p)) out.push_back(p);
  return out;
}

/// Random sb/sh/sw through the core's DMI path, most of them into pages no
/// earlier store touched (a dropped mark is only visible there), a third of
/// the sh/sw straddling a page end into two untouched pages. Stepped one
/// instruction at a time, with the oracle checked after each.
template <typename W>
void random_core_stores(std::uint32_t seed) {
  dift::Lattice lattice = dift::Lattice::ifp1();
  dift::DiftContext ctx{lattice};
  constexpr std::size_t kPages = 128;
  testutil::MicroVm<W> vm(kPages * kPage);
  std::mt19937 rng(seed);
  std::set<std::size_t> touched = {0};  // the code page
  auto fresh_page = [&](std::size_t span) {
    for (;;) {
      const std::size_t p = 1 + rng() % (kPages - span);
      bool free = true;
      for (std::size_t q = p; q < p + span; ++q) free = free && !touched.count(q);
      if (free) return p;
    }
  };

  rvasm::Assembler a(vm.kBase);
  for (int i = 0; i < 40; ++i) {
    const std::uint32_t size = 1u << (rng() % 3);
    std::size_t off;
    if (size > 1 && rng() % 3 == 0) {
      const std::size_t p = fresh_page(2);
      off = (p + 1) * kPage - 1 - rng() % (size - 1);  // straddles p | p+1
    } else if (rng() % 4 == 0) {
      const auto it = std::next(touched.begin(),
                                static_cast<std::ptrdiff_t>(rng() % touched.size()));
      off = std::max<std::size_t>(*it * kPage, 0x800) + rng() % 0x400;
    } else {
      off = fresh_page(1) * kPage + rng() % (kPage - size + 1);
    }
    touched.insert(off / kPage);
    touched.insert((off + size - 1) / kPage);
    a.li(t0, static_cast<std::int64_t>(vm.kBase + off));
    a.li(t1, static_cast<std::int64_t>(rng() | 0x01010101u));  // no zero byte
    a.add(t1, t1, t2);  // t2 is 0; in the VP+ it carries a tag
    if (size == 1) a.sb(t1, t0, 0);
    if (size == 2) a.sh(t1, t0, 0);
    if (size == 4) a.sw(t1, t0, 0);
  }
  a.label("done");
  a.j("done");
  const rvasm::Program prog = a.assemble();
  ASSERT_LT(prog.segments.at(0).bytes.size(), 0x800u);
  vm.load(prog);
  vm.core.set_reg(t2, rv::WordOps<W>::make(0, lattice.tag_of("HC")));
  expect_save_matches_scan(vm.ram, "load_image");

  while (vm.core.pc() != prog.symbol("done")) {
    vm.core.run(1);
    expect_save_matches_scan(vm.ram, "a core instruction");
  }
  EXPECT_EQ(marked_pages(vm.ram),
            std::vector<std::size_t>(touched.begin(), touched.end()));
}

TEST(WrittenPages, PlainCoreStoresMarkTheirPages) {
  for (std::uint32_t seed : {1u, 2u, 3u}) random_core_stores<rv::PlainWord>(seed);
}

TEST(WrittenPages, TaintedCoreStoresMarkTheirPages) {
  for (std::uint32_t seed : {1u, 2u, 3u}) random_core_stores<rv::TaintedWord>(seed);
}

// The host-side and bus writers, each into pages nothing wrote before.
TEST(WrittenPages, EveryMemoryWriterMarksItsPages) {
  dift::Lattice lattice = dift::Lattice::ifp1();
  dift::DiftContext ctx{lattice};
  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 32 * kPage, true};
  soc::Dma dma{sim, "dma", /*tainted_mode=*/true};
  constexpr std::uint64_t kBase = 0x80000000, kDmaBase = 0x53000000;
  bus.map(kBase, ram.size(), ram.socket(), "ram");
  bus.map(kDmaBase, 0x100, dma.socket(), "dma");
  dma.bus_socket().bind(bus.target_socket());
  dma.start();
  EXPECT_TRUE(marked_pages(ram).empty());

  // write_u32 straddling the end of page 1.
  ram.write_u32(2 * kPage - 2, 0x11223344);
  expect_save_matches_scan(ram, "write_u32");

  // load_image: a segment across the end of page 3, one inside page 6.
  rvasm::Program img;
  img.segments.push_back({kBase + 4 * kPage - 8, std::vector<std::uint8_t>(16, 0x5a)});
  img.segments.push_back({kBase + 6 * kPage + 100, {1, 2, 3}});
  ram.load_image(img, kBase);
  expect_save_matches_scan(ram, "load_image");

  // Memory::transport writes, untainted and tainted, across page ends.
  auto bus_write = [&](std::uint64_t off, dift::Tag* tags) {
    std::uint8_t bytes[8] = {9, 8, 7, 6, 5, 4, 3, 2};
    tlmlite::Payload p;
    p.command = tlmlite::Command::kWrite;
    p.address = kBase + off;
    p.data = bytes;
    p.tags = tags;
    p.length = sizeof bytes;
    sysc::Time d;
    bus.target_socket().b_transport(p, d);
    ASSERT_TRUE(p.ok());
  };
  bus_write(8 * kPage - 4, nullptr);
  expect_save_matches_scan(ram, "an untainted transport write");
  dift::Tag tags[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  bus_write(10 * kPage - 3, tags);
  expect_save_matches_scan(ram, "a tainted transport write");

  // A DMA burst from page 1 into pages 14 and 15.
  auto dma_reg = [&](std::uint64_t reg, std::uint32_t v) {
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    tlmlite::Payload p;
    p.command = tlmlite::Command::kWrite;
    p.address = kDmaBase + reg;
    p.data = buf;
    p.length = 4;
    sysc::Time d;
    bus.target_socket().b_transport(p, d);
    ASSERT_TRUE(p.ok());
  };
  dma_reg(soc::Dma::kSrc, static_cast<std::uint32_t>(kBase + 2 * kPage - 64));
  dma_reg(soc::Dma::kDst, static_cast<std::uint32_t>(kBase + 15 * kPage - 40));
  dma_reg(soc::Dma::kLen, 128);
  dma_reg(soc::Dma::kCtrl, 1);
  sim.run(sysc::Time::ms(1));
  ASSERT_EQ(dma.transfers_completed(), 1u);
  expect_save_matches_scan(ram, "a DMA burst");

  // flip_bits into page 20.
  ram.flip_bits(20 * kPage + 7, 0x80);
  expect_save_matches_scan(ram, "flip_bits");
  EXPECT_EQ(marked_pages(ram),
            (std::vector<std::size_t>{1, 2, 3, 4, 6, 7, 8, 9, 10, 14, 15, 20}));

  // Raw data() may be written anywhere, so it marks every page.
  ram.data()[30 * kPage + 1] = 0x42;
  expect_save_matches_scan(ram, "a raw data() write");
  EXPECT_EQ(marked_pages(ram).size(), ram.page_count());
}

// The fi kRamFlip fault writes through Memory, so it marks its page.
TEST(WrittenPages, RamFlipFaultMarksItsPage) {
  const auto prog = fw::make_primes(100);
  vp::VpDift v;
  v.load(prog);
  auto bundle = vp::scenarios::make_permissive_policy();
  v.apply_policy(bundle.policy);
  const std::size_t off = v.ram().size() / 2 + 123;
  ASSERT_FALSE(v.ram().page_written(off / kPage));
  fi::FaultSpec f;
  f.model = fi::FaultModel::kRamFlip;
  f.offset = off;
  f.bits = 0x24;
  fi::apply_now(v, f);
  expect_save_matches_scan(v.ram(), "a kRamFlip fault");
  EXPECT_TRUE(v.ram().page_written(off / kPage));
}

// restore() makes the set exactly the snapshot's held pages, whatever was
// marked before; clear() leaves none.
TEST(WrittenPages, RestoreMarksExactlyTheHeldPages) {
  sysc::Simulation sim;
  soc::Memory ram{sim, "ram", 16 * kPage + 100, true};  // short last page
  ram.write_u32(2 * kPage, 1);
  ram.write_u32(16 * kPage + 96, 2);
  const soc::SparsePlane snap = ram.save_data();
  ASSERT_EQ(snap.pages(), (std::vector<std::size_t>{2, 16}));

  ram.clear();
  EXPECT_TRUE(marked_pages(ram).empty());
  ram.write_u32(5 * kPage, 3);
  ram.write_u32(9 * kPage, 0);  // marked, yet all zero
  ram.restore(snap, soc::SparsePlane());
  expect_save_matches_scan(ram, "restore");
  EXPECT_EQ(marked_pages(ram), snap.pages());
  EXPECT_EQ(ram.read_u32(5 * kPage), 0u);
  EXPECT_EQ(ram.read_u32(16 * kPage + 96), 2u);
}

/// A qsort VP+ under the permissive policy, snapshotted mid-run.
struct MidRunQsort {
  rvasm::Program prog = fw::make_qsort(500, 1);
  vp::scenarios::PolicyBundle bundle = vp::scenarios::make_permissive_policy();
  vp::VpSnapshot snap;

  MidRunQsort() {
    vp::VpDift v;
    v.load(prog);
    v.apply_policy(bundle.policy);
    v.core().arm_fault(2000, [&](rv::Core<rv::TaintedWord>&) { snap = v.snapshot(); });
    (void)v.run(sysc::Time::sec(10));
  }
};

// Restore work scales with the snapshot: a fresh VP+ or VP that is restored
// holds exactly the snapshot's pages in its set, and reset holds none.
TEST(WrittenPages, RestoreIntoAFreshVpMarksTheSnapshotPagesOnly) {
  MidRunQsort q;
  ASSERT_EQ(q.snap.instret, 2000u);
  ASSERT_FALSE(q.snap.ram.empty());

  vp::VpDift d;
  d.load(q.prog);
  d.apply_policy(q.bundle.policy);
  d.restore(q.snap);
  EXPECT_EQ(marked_pages(d.ram()), q.snap.ram.pages());
  expect_save_matches_scan(d.ram(), "restore into a VP+");

  vp::Vp plain;
  plain.load(q.prog);
  plain.restore(q.snap);
  EXPECT_EQ(marked_pages(plain.ram()), q.snap.ram.pages());
  expect_save_matches_scan(plain.ram(), "restore into a VP");

  (void)d.run(sysc::Time::sec(10));
  d.reset();
  EXPECT_TRUE(marked_pages(d.ram()).empty());
  expect_save_matches_scan(d.ram(), "reset");
}

}  // namespace
