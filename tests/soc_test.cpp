// Unit tests for the SoC peripherals (transport-level).
#include <gtest/gtest.h>

#include <cstring>

#include "dift/context.hpp"
#include "soc/aes128.hpp"
#include "soc/clint.hpp"
#include "soc/memory.hpp"
#include "soc/plic.hpp"
#include "soc/sysctrl.hpp"
#include "soc/uart.hpp"
#include "tlmlite/payload.hpp"

namespace {

using namespace vpdift;
using tlmlite::Command;
using tlmlite::Payload;
using tlmlite::Response;

// Convenience transport wrappers.
struct Io {
  tlmlite::TargetSocket* sock;
  bool tainted;

  std::uint32_t read32(std::uint64_t addr, dift::Tag* tag_out = nullptr) {
    std::uint8_t buf[4] = {};
    dift::Tag tags[4] = {};
    Payload p;
    p.command = Command::kRead;
    p.address = addr;
    p.data = buf;
    p.tags = tainted ? tags : nullptr;
    p.length = 4;
    sysc::Time d;
    sock->b_transport(p, d);
    EXPECT_TRUE(p.ok()) << "read @" << std::hex << addr;
    if (tag_out) *tag_out = tags[0];
    std::uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
  }
  Response write_bytes(std::uint64_t addr, const std::uint8_t* data,
                       std::uint32_t n, dift::Tag tag = dift::kBottomTag) {
    std::uint8_t buf[16];
    dift::Tag tags[16];
    std::memcpy(buf, data, n);
    for (std::uint32_t i = 0; i < n; ++i) tags[i] = tag;
    Payload p;
    p.command = Command::kWrite;
    p.address = addr;
    p.data = buf;
    p.tags = tainted ? tags : nullptr;
    p.length = n;
    sysc::Time d;
    sock->b_transport(p, d);
    return p.response;
  }
  Response write32(std::uint64_t addr, std::uint32_t v,
                   dift::Tag tag = dift::kBottomTag) {
    std::uint8_t buf[4];
    std::memcpy(buf, &v, 4);
    return write_bytes(addr, buf, 4, tag);
  }
};

// ---- AES-128 reference ----

TEST(Aes128, Fips197VectorC1) {
  const soc::AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                           0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const soc::AesBlock pt = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                            0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const soc::AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04,
                                  0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                                  0xc5, 0x5a};
  EXPECT_EQ(soc::aes128_encrypt(key, pt), expected);
}

TEST(Aes128, NistSp80038aVector) {
  const soc::AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const soc::AesBlock pt = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                            0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  const soc::AesBlock expected = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36,
                                  0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                                  0xef, 0x97};
  EXPECT_EQ(soc::aes128_encrypt(key, pt), expected);
}

// ---- Memory ----

TEST(MemoryPeriph, TaggedReadWriteAndClassify) {
  sysc::Simulation sim;
  soc::Memory mem(sim, "ram", 1024, /*track_tags=*/true);
  Io io{&mem.socket(), true};
  EXPECT_EQ(io.write32(0x10, 0xdeadbeef, 3), Response::kOk);
  dift::Tag t = 0;
  EXPECT_EQ(io.read32(0x10, &t), 0xdeadbeefu);
  EXPECT_EQ(t, 3);
  mem.classify(0x20, 4, 5);
  EXPECT_EQ(mem.tag_at(0x20), 5);
  EXPECT_EQ(mem.tag_at(0x24), dift::kBottomTag);
  EXPECT_THROW(mem.classify(1020, 8, 1), std::out_of_range);
}

TEST(MemoryPeriph, UntrackedMemoryReportsBottomTags) {
  sysc::Simulation sim;
  soc::Memory mem(sim, "ram", 1024, /*track_tags=*/false);
  EXPECT_EQ(mem.tags(), nullptr);
  Io io{&mem.socket(), true};  // tainted initiator against untracked memory
  io.write32(0, 42, 7);
  dift::Tag t = 99;
  EXPECT_EQ(io.read32(0, &t), 42u);
  EXPECT_EQ(t, dift::kBottomTag);
}

TEST(MemoryPeriph, OutOfRangeIsAddressError) {
  sysc::Simulation sim;
  soc::Memory mem(sim, "ram", 64, true);
  Io io{&mem.socket(), true};
  EXPECT_EQ(io.write32(62, 1), Response::kAddressError);
}

TEST(MemoryPeriph, LoadImageRejectsOutOfRangeSegment) {
  sysc::Simulation sim;
  soc::Memory mem(sim, "ram", 64, false);
  rvasm::Program p;
  p.segments.push_back({0x80000000, std::vector<std::uint8_t>(128, 0)});
  EXPECT_THROW(mem.load_image(p, 0x80000000), std::out_of_range);
}

TEST(MemoryPeriph, SparseSaveHoldsOnlyNonZeroPages) {
  constexpr std::size_t kPage = soc::SparsePlane::kPageBytes;
  sysc::Simulation sim;
  soc::Memory mem(sim, "ram", 3 * kPage + 100, true);  // short last page
  EXPECT_TRUE(mem.save_data().empty());
  EXPECT_TRUE(mem.save_tags().empty());
  mem.write_u32(kPage + 8, 0x01020304);
  mem.write_u32(3 * kPage + 96, 0xa5a5a5a5);  // the last 4 bytes
  mem.classify(3 * kPage + 10, 2, 7);

  const soc::SparsePlane data = mem.save_data();
  EXPECT_EQ(data.plane_size(), mem.size());
  EXPECT_EQ(data.pages(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(data.size(), 2 * kPage);
  EXPECT_EQ(data.at(kPage + 8), 0x04);
  EXPECT_EQ(data.at(3 * kPage + 99), 0xa5);
  EXPECT_EQ(data.at(0), 0);  // a page not held reads as zero
  EXPECT_THROW(data.at(mem.size()), std::out_of_range);
  const soc::SparsePlane tags = mem.save_tags();
  EXPECT_EQ(tags.pages(), (std::vector<std::size_t>{3}));
  EXPECT_EQ(tags.at(3 * kPage + 11), 7);

  // Restore over different contents: held pages come back, the rest zero.
  mem.clear();
  EXPECT_EQ(mem.read_u32(kPage + 8), 0u);
  EXPECT_TRUE(mem.shadow().all_bottom());
  mem.write_u32(2 * kPage, 0xffffffff);
  mem.classify(0, 4, 3);
  mem.restore(data, tags);
  EXPECT_EQ(mem.read_u32(kPage + 8), 0x01020304u);
  EXPECT_EQ(mem.read_u32(3 * kPage + 96), 0xa5a5a5a5u);
  EXPECT_EQ(mem.read_u32(2 * kPage), 0u);
  EXPECT_EQ(mem.tag_at(0), dift::kBottomTag);
  EXPECT_EQ(mem.tag_at(3 * kPage + 10), 7);
  EXPECT_EQ(mem.shadow().live_blocks(), 1u);

  // A plane of another size is rejected before anything changes.
  EXPECT_THROW(mem.restore(soc::SparsePlane(16), tags), std::invalid_argument);
  EXPECT_EQ(mem.read_u32(kPage + 8), 0x01020304u);
}

// ---- UART ----

class UartTest : public ::testing::Test {
 protected:
  dift::Lattice lattice_ = dift::Lattice::ifp1();
  dift::DiftContext ctx_{lattice_};
  sysc::Simulation sim_;
  soc::Uart uart_{sim_, "uart0"};
  Io io_{&uart_.socket(), true};
};

TEST_F(UartTest, TransmitAppendsToLog) {
  const std::uint8_t c = 'h';
  io_.write_bytes(soc::Uart::kTxData, &c, 1);
  const std::uint8_t d = 'i';
  io_.write_bytes(soc::Uart::kTxData, &d, 1);
  EXPECT_EQ(uart_.output(), "hi");
}

TEST_F(UartTest, OutputClearanceBlocksClassifiedData) {
  uart_.set_output_clearance(lattice_.tag_of("LC"));
  const std::uint8_t ok = 'x';
  EXPECT_EQ(io_.write_bytes(soc::Uart::kTxData, &ok, 1, lattice_.tag_of("LC")),
            Response::kOk);
  const std::uint8_t secret = 's';
  EXPECT_THROW(
      io_.write_bytes(soc::Uart::kTxData, &secret, 1, lattice_.tag_of("HC")),
      dift::PolicyViolation);
  EXPECT_EQ(uart_.output(), "x");
}

TEST_F(UartTest, ReceivePathTagsAndDrains) {
  uart_.set_input_tag(lattice_.tag_of("HC"));
  uart_.feed_input("ab");
  EXPECT_EQ(io_.read32(soc::Uart::kStatus) & 2u, 2u);
  dift::Tag t = 0;
  EXPECT_EQ(io_.read32(soc::Uart::kRxData, &t), static_cast<std::uint32_t>('a'));
  EXPECT_EQ(t, lattice_.tag_of("HC"));
  EXPECT_EQ(io_.read32(soc::Uart::kRxData, &t), static_cast<std::uint32_t>('b'));
  EXPECT_EQ(io_.read32(soc::Uart::kRxData, &t), 0xffffffffu);  // empty
  EXPECT_EQ(io_.read32(soc::Uart::kStatus) & 2u, 0u);
}

TEST_F(UartTest, RxInterruptFollowsEnableAndData) {
  bool level = false;
  uart_.set_irq([&](bool l) { level = l; });
  uart_.feed_input("z");
  EXPECT_FALSE(level);  // interrupts not enabled yet
  io_.write32(soc::Uart::kIe, 1);
  EXPECT_TRUE(level);
  io_.read32(soc::Uart::kRxData);
  EXPECT_FALSE(level);  // drained
}

// ---- PLIC ----

TEST(PlicPeriph, ClaimReturnsLowestEnabledPendingAndClears) {
  sysc::Simulation sim;
  soc::Plic plic(sim, "plic0");
  bool ext = false;
  plic.set_ext_irq([&](bool l) { ext = l; });
  Io io{&plic.socket(), false};
  plic.raise(5);
  plic.raise(3);
  EXPECT_FALSE(ext);  // nothing enabled
  io.write32(soc::Plic::kEnable, (1u << 3) | (1u << 5));
  EXPECT_TRUE(ext);
  EXPECT_EQ(io.read32(soc::Plic::kClaim), 3u);
  EXPECT_TRUE(ext);  // 5 still pending
  EXPECT_EQ(io.read32(soc::Plic::kClaim), 5u);
  EXPECT_FALSE(ext);
  EXPECT_EQ(io.read32(soc::Plic::kClaim), 0u);  // nothing left
}

TEST(PlicPeriph, DisabledSourceInvisibleToClaim) {
  sysc::Simulation sim;
  soc::Plic plic(sim, "plic0");
  Io io{&plic.socket(), false};
  plic.raise(7);
  io.write32(soc::Plic::kEnable, 1u << 2);
  EXPECT_EQ(io.read32(soc::Plic::kClaim), 0u);
  EXPECT_EQ(io.read32(soc::Plic::kPending), 1u << 7);
}

// ---- CLINT ----

TEST(ClintPeriph, MtimeTracksSimTimeInMicroseconds) {
  sysc::Simulation sim;
  soc::Clint clint(sim, "clint0");
  Io io{&clint.socket(), false};
  EXPECT_EQ(io.read32(soc::Clint::kMtime), 0u);
  sim.schedule_in(sysc::Time::us(123), [] {});
  sim.run();
  EXPECT_EQ(io.read32(soc::Clint::kMtime), 123u);
}

TEST(ClintPeriph, TimerIrqFiresAtMtimecmp) {
  sysc::Simulation sim;
  soc::Clint clint(sim, "clint0");
  bool timer = false;
  clint.set_timer_irq([&](bool l) { timer = l; });
  clint.start();
  Io io{&clint.socket(), false};
  io.write32(soc::Clint::kMtimecmp, 50);      // low word
  io.write32(soc::Clint::kMtimecmp + 4, 0);   // high word
  sim.run(sysc::Time::us(49));  // run() deadlines are absolute
  EXPECT_FALSE(timer);
  sim.run(sysc::Time::us(51));
  EXPECT_TRUE(timer);
  // Re-arm into the future: line drops.
  io.write32(soc::Clint::kMtimecmp, 100);
  EXPECT_FALSE(timer);
}

TEST(ClintPeriph, MsipDrivesSoftwareIrq) {
  sysc::Simulation sim;
  soc::Clint clint(sim, "clint0");
  bool soft = false;
  clint.set_soft_irq([&](bool l) { soft = l; });
  Io io{&clint.socket(), false};
  io.write32(soc::Clint::kMsip, 1);
  EXPECT_TRUE(soft);
  EXPECT_EQ(io.read32(soc::Clint::kMsip), 1u);
  io.write32(soc::Clint::kMsip, 0);
  EXPECT_FALSE(soft);
}

// ---- SysCtrl ----

TEST(SysCtrlPeriph, ExitStopsSimulationWithCode) {
  sysc::Simulation sim;
  soc::SysCtrl sc(sim, "sysctrl0");
  Io io{&sc.socket(), false};
  sim.schedule_in(sysc::Time::us(1),
                  [&] { io.write32(soc::SysCtrl::kExit, 7); });
  sim.schedule_in(sysc::Time::us(2), [&] { FAIL() << "must not run"; });
  sim.run();
  EXPECT_TRUE(sc.exited());
  EXPECT_EQ(sc.exit_code(), 7u);
}

TEST(SysCtrlPeriph, MarkersAccumulate) {
  sysc::Simulation sim;
  soc::SysCtrl sc(sim, "sysctrl0");
  Io io{&sc.socket(), false};
  const std::uint8_t x = 'X';
  io.write_bytes(soc::SysCtrl::kMark, &x, 1);
  const std::uint8_t y = 'Y';
  io.write_bytes(soc::SysCtrl::kMark, &y, 1);
  EXPECT_EQ(sc.markers(), "XY");
}

}  // namespace
