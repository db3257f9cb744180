// Unit tests for the TLM-lite payload, sockets, and bus routing.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "soc/addrmap.hpp"
#include "sysc/kernel.hpp"
#include "tlmlite/bus.hpp"
#include "tlmlite/payload.hpp"
#include "tlmlite/socket.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::tlmlite;

struct ScratchTarget {
  TargetSocket socket;
  std::uint8_t mem[64] = {};
  dift::Tag tags[64] = {};
  std::uint64_t last_address = ~0ull;

  ScratchTarget() {
    socket.register_transport([this](Payload& p, sysc::Time& delay) {
      last_address = p.address;
      if (p.address + p.length > sizeof(mem)) {
        p.response = Response::kAddressError;
        return;
      }
      if (p.is_read()) {
        std::memcpy(p.data, mem + p.address, p.length);
        if (p.tainted()) std::memcpy(p.tags, tags + p.address, p.length);
      } else {
        std::memcpy(mem + p.address, p.data, p.length);
        if (p.tainted()) std::memcpy(tags + p.address, p.tags, p.length);
      }
      delay += sysc::Time::ns(5);
      p.response = Response::kOk;
    });
  }
};

TEST(Socket, UnboundInitiatorThrows) {
  InitiatorSocket init;
  Payload p;
  sysc::Time d;
  EXPECT_FALSE(init.bound());
  EXPECT_THROW(init.b_transport(p, d), std::logic_error);
}

TEST(Socket, UnregisteredTargetThrows) {
  TargetSocket t;
  Payload p;
  sysc::Time d;
  EXPECT_FALSE(t.bound());
  EXPECT_THROW(t.b_transport(p, d), std::logic_error);
}

TEST(Socket, WriteThenReadRoundTripsWithTags) {
  ScratchTarget target;
  InitiatorSocket init;
  init.bind(target.socket);

  std::uint8_t data[4] = {1, 2, 3, 4};
  dift::Tag tags[4] = {7, 7, 7, 7};
  Payload w;
  w.command = Command::kWrite;
  w.address = 8;
  w.data = data;
  w.tags = tags;
  w.length = 4;
  sysc::Time delay;
  init.b_transport(w, delay);
  ASSERT_TRUE(w.ok());

  std::uint8_t rd[4] = {};
  dift::Tag rt[4] = {};
  Payload r;
  r.command = Command::kRead;
  r.address = 8;
  r.data = rd;
  r.tags = rt;
  r.length = 4;
  init.b_transport(r, delay);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(rd[0], 1);
  EXPECT_EQ(rd[3], 4);
  EXPECT_EQ(rt[0], 7);
  EXPECT_GE(delay, sysc::Time::ns(10));  // both transports annotated latency
}

TEST(Socket, UntaintedInitiatorPassesNullTags) {
  ScratchTarget target;
  InitiatorSocket init;
  init.bind(target.socket);
  std::uint8_t data[2] = {9, 9};
  Payload w;
  w.command = Command::kWrite;
  w.address = 0;
  w.data = data;
  w.length = 2;
  sysc::Time d;
  init.b_transport(w, d);
  EXPECT_TRUE(w.ok());
  EXPECT_FALSE(w.tainted());
}

class BusTest : public ::testing::Test {
 protected:
  sysc::Simulation sim_;
  Bus bus_{sim_, "bus0"};
  ScratchTarget a_, b_;

  void SetUp() override {
    bus_.map(0x1000, 64, a_.socket, "a");
    bus_.map(0x2000, 64, b_.socket, "b");
  }

  Payload make_read(std::uint64_t addr, std::uint8_t* buf, std::uint32_t len) {
    Payload p;
    p.command = Command::kRead;
    p.address = addr;
    p.data = buf;
    p.length = len;
    return p;
  }
};

TEST_F(BusTest, RoutesByAddressAndRebases) {
  std::uint8_t buf[4] = {};
  sysc::Time d;
  auto p = make_read(0x1010, buf, 4);
  bus_.transport(p, d);
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(a_.last_address, 0x10u);   // rebased
  EXPECT_EQ(p.address, 0x1010u);       // restored for the initiator

  auto q = make_read(0x2004, buf, 4);
  bus_.transport(q, d);
  EXPECT_EQ(b_.last_address, 0x4u);
}

TEST_F(BusTest, UnmappedAddressIsAddressError) {
  std::uint8_t buf[4] = {};
  sysc::Time d;
  auto p = make_read(0x3000, buf, 4);
  bus_.transport(p, d);
  EXPECT_EQ(p.response, Response::kAddressError);
}

TEST_F(BusTest, AccessStraddlingRangeEndIsAddressError) {
  std::uint8_t buf[8] = {};
  sysc::Time d;
  auto p = make_read(0x103e, buf, 4);  // last two bytes fall off the range
  bus_.transport(p, d);
  EXPECT_EQ(p.response, Response::kAddressError);
}

TEST_F(BusTest, OverlappingMappingRejected) {
  ScratchTarget c;
  EXPECT_THROW(bus_.map(0x1020, 64, c.socket, "c"), std::invalid_argument);
  EXPECT_THROW(bus_.map(0x0fff, 2, c.socket, "c"), std::invalid_argument);
  EXPECT_NO_THROW(bus_.map(0x1040, 16, c.socket, "c"));
}

TEST_F(BusTest, EmptyMappingRejected) {
  ScratchTarget c;
  EXPECT_THROW(bus_.map(0x5000, 0, c.socket, "c"), std::invalid_argument);
}

TEST_F(BusTest, PortNameLookup) {
  EXPECT_EQ(bus_.port_at(0x1000), "a");
  EXPECT_EQ(bus_.port_at(0x203f), "b");
  EXPECT_EQ(bus_.port_at(0x9999), "");
  EXPECT_EQ(bus_.mapping_count(), 2u);
}

TEST_F(BusTest, TargetSocketRoutesLikeTransport) {
  std::uint8_t buf[1] = {};
  sysc::Time d;
  auto p = make_read(0x2000, buf, 1);
  bus_.target_socket().b_transport(p, d);
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(b_.last_address, 0u);
}

// ---------------------------------------------------------------------------
// Slot-table routing: one 16 MiB slot per table entry, scan fallback for
// shared slots and addresses at or above 4 GiB.
// ---------------------------------------------------------------------------

/// Accepts any access and records the rebased address it saw.
struct SinkTarget {
  TargetSocket socket;
  std::uint64_t last_address = ~0ull;
  SinkTarget() {
    socket.register_transport([this](Payload& p, sysc::Time&) {
      last_address = p.address;
      p.response = Response::kOk;
    });
  }
};

class BusRoutingTest : public ::testing::Test {
 protected:
  struct Mapped {
    std::string name;
    std::uint64_t base, size;
    std::unique_ptr<SinkTarget> target;
  };

  sysc::Simulation sim_;
  Bus bus_{sim_, "bus0"};
  std::vector<Mapped> mapped_;

  void map(std::uint64_t base, std::uint64_t size, const std::string& name) {
    mapped_.push_back({name, base, size, std::make_unique<SinkTarget>()});
    bus_.map(base, size, mapped_.back().target->socket, name);
  }

  /// One-byte read at `address`: the port that served it, or "" on
  /// kAddressError. Checks the rebase against the serving mapping.
  std::string access(std::uint64_t address) {
    for (auto& m : mapped_) m.target->last_address = ~0ull;
    std::uint8_t byte = 0;
    Payload p;
    p.command = Command::kRead;
    p.address = address;
    p.data = &byte;
    p.length = 1;
    sysc::Time d;
    bus_.transport(p, d);
    EXPECT_EQ(p.address, address);  // restored for the initiator
    if (p.response == Response::kAddressError) return "";
    EXPECT_TRUE(p.ok());
    for (const auto& m : mapped_)
      if (m.target->last_address != ~0ull) {
        EXPECT_EQ(m.target->last_address, address - m.base) << m.name;
        return m.name;
      }
    ADD_FAILURE() << "no target saw " << std::hex << address;
    return "";
  }

  /// Every mapping's first and last byte routes to it, and the bytes just
  /// outside it route elsewhere or fail; port_at agrees with transport on
  /// each probe.
  void check_edges() {
    for (const auto& m : mapped_) {
      const std::uint64_t last = m.base + m.size - 1;
      EXPECT_EQ(access(m.base), m.name);
      EXPECT_EQ(access(last), m.name);
      EXPECT_NE(access(last + 1), m.name);
      EXPECT_NE(access(m.base - 1), m.name);
      for (const std::uint64_t a : {m.base - 1, m.base, last, last + 1})
        EXPECT_EQ(bus_.port_at(a), access(a)) << std::hex << a;
    }
  }
};

TEST_F(BusRoutingTest, VpAddressMapEdgesAndGaps) {
  namespace am = soc::addrmap;
  map(am::kRamBase, 4u << 20, "ram0");
  map(am::kClintBase, am::kClintSize, "clint0");
  map(am::kPlicBase, am::kPlicSize, "plic0");
  map(am::kUartBase, am::kUartSize, "uart0");
  map(am::kSysCtrlBase, am::kSysCtrlSize, "sysctrl0");
  map(am::kSensorBase, am::kSensorSize, "sensor0");
  map(am::kAesBase, am::kAesSize, "aes0");
  map(am::kCanBase, am::kCanSize, "can0");
  map(am::kDmaBase, am::kDmaSize, "dma0");
  map(am::kGpioBase, am::kGpioSize, "gpio0");
  map(am::kWdtBase, am::kWdtSize, "wdt0");
  map(am::kFlashBase, 0x1234, "flash0");
  check_edges();
  // Gaps: past each peripheral's window inside its slot, empty slots, and
  // past the end of RAM.
  EXPECT_EQ(access(am::kRamBase + (4u << 20)), "");
  EXPECT_EQ(access(am::kCanBase + am::kCanSize), "");
  EXPECT_EQ(access(am::kSensorBase + 0xffffff), "");
  EXPECT_EQ(access(0x0), "");
  EXPECT_EQ(access(0x40000000), "");
  EXPECT_EQ(access(0xffffffff), "");
  EXPECT_EQ(bus_.port_at(0x40000000), "");
}

TEST_F(BusRoutingTest, TwoRangesInOneSlot) {
  map(0x10000000, 0x100, "lo");
  map(0x10800000, 0x100, "hi");
  check_edges();
  EXPECT_EQ(access(0x10000100), "");  // gap between them, same slot
  EXPECT_EQ(access(0x107fffff), "");
  EXPECT_EQ(access(0x10ffffff), "");
}

TEST_F(BusRoutingTest, RangeSpanningSeveralSlots) {
  // 40 MiB from 0x20000000: whole slots 0x20 and 0x21, half of 0x22, which
  // it shares with a second range.
  map(0x20000000, 40u << 20, "big");
  map(0x22900000, 0x1000, "tail");
  map(0x23000000, 0x10, "next");
  check_edges();
  EXPECT_EQ(access(0x21abcdef), "big");
  EXPECT_EQ(access(0x22800000), "");
  EXPECT_EQ(access(0x1fffffff), "");
}

TEST_F(BusRoutingTest, MappingsAndAccessesAbove4GiB) {
  map(0xffffff00, 0x200, "straddle");  // last slot and past 4 GiB
  map(0x200000000, 0x100, "high");
  map(0x80000000, 0x100, "low");
  check_edges();
  EXPECT_EQ(access(0x100000000), "straddle");
  EXPECT_EQ(access(0x1000000ff), "straddle");
  EXPECT_EQ(access(0x100000100), "");
  EXPECT_EQ(access(0x180000000), "");  // slot 0x80 of the next 4 GiB
  EXPECT_EQ(access(0x2000000ff), "high");
  EXPECT_EQ(bus_.port_at(0x200000010), "high");
  EXPECT_EQ(bus_.port_at(0x180000010), "");
}

}  // namespace
