// Differential + taint-soundness fuzzing of the two core instantiations.
//
// 1. Differential: random straight-line-with-branches programs must produce
//    bit-identical architectural state on Core<uint32_t> (VP) and
//    Core<Taint<uint32_t>> (VP+) — the DIFT machinery must never perturb
//    values.
// 2. Taint soundness (dynamic approximation): taint one input register; run
//    twice with two different input *values*; every register whose final
//    value differs between the runs is data-dependent on the input and must
//    therefore carry a non-bottom tag in the tainted run.
// 3. Fast vs careful: each program runs on the VP+ once as is (threaded
//    block chains) and once with a trace buffer attached (the careful per-
//    instruction path), with all-⊥ inputs (plain variant) and with one
//    tagged input (tainted variant); values, tags, memory and the path-
//    independent engine counters must agree.
// 4. Self-modifying code: random programs that store into their own
//    block, into later and into earlier blocks run on the block engine (VP
//    and both VP+ variants) and on a reference core without a DMI window,
//    which fetches every instruction over the bus; state, retirement count
//    and final code bytes must agree.
// 5. Register-access width fuzzing: randomized 1..8-byte reads/writes at the
//    DMA and UART register files — oversized accesses must clamp to the
//    4-byte register width (never shift past it: UB) and reads must always
//    fill the whole payload (bytes beyond the register read as zero).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "campaign/thread_pool.hpp"
#include "dift/context.hpp"
#include "micro_vm.hpp"
#include "rv/trace.hpp"
#include "soc/dma.hpp"
#include "soc/memory.hpp"
#include "tlmlite/bus.hpp"
#include "soc/uart.hpp"

namespace {

using namespace vpdift;
using namespace vpdift::rvasm::reg;
using testutil::MicroVm;

// Random program generator: ALU ops, loads/stores into a scratch window,
// and short forward branches. Deterministic per seed.
class ProgramFuzzer {
 public:
  // `branches=false` generates straight-line programs: the dynamic taint-
  // soundness check below is only valid without control-flow-dependent
  // (implicit) flows, which data-flow DIFT deliberately does not propagate —
  // the paper handles those via the branch execution clearance instead.
  explicit ProgramFuzzer(std::uint32_t seed, bool branches = true)
      : rng_(seed), branches_(branches) {}

  rvasm::Program generate(int instructions) {
    rvasm::Assembler a(MicroVm<rv::PlainWord>::kBase);
    int label_counter = 0;
    std::vector<std::string> open_labels;
    for (int i = 0; i < instructions; ++i) {
      // Close a pending forward branch target occasionally.
      if (!open_labels.empty() && rng_() % 4 == 0) {
        a.label(open_labels.back());
        open_labels.pop_back();
      }
      emit_random(a, label_counter, open_labels);
    }
    for (auto it = open_labels.rbegin(); it != open_labels.rend(); ++it)
      a.label(*it);
    a.label("fuzz_end");
    a.j("fuzz_end");  // park
    a.align(16);
    a.label("scratch");
    a.zero_fill(256);
    return a.assemble();
  }

 private:
  rvasm::Reg reg_gp() {  // general-purpose registers only (x5..x15)
    return static_cast<rvasm::Reg>(5 + rng_() % 11);
  }

  void emit_random(rvasm::Assembler& a, int& label_counter,
                   std::vector<std::string>& open_labels) {
    const rvasm::Reg rd = reg_gp(), rs1 = reg_gp(), rs2 = reg_gp();
    switch (rng_() % 16) {
      case 0: a.add(rd, rs1, rs2); break;
      case 1: a.sub(rd, rs1, rs2); break;
      case 2: a.xor_(rd, rs1, rs2); break;
      case 3: a.and_(rd, rs1, rs2); break;
      case 4: a.or_(rd, rs1, rs2); break;
      case 5: a.mul(rd, rs1, rs2); break;
      case 6: a.divu(rd, rs1, rs2); break;
      case 7: a.sltu(rd, rs1, rs2); break;
      case 8: a.sll(rd, rs1, rs2); break;
      case 9: a.sra(rd, rs1, rs2); break;
      case 10: a.addi(rd, rs1, static_cast<std::int32_t>(rng_() % 4096) - 2048); break;
      case 11: {  // store to scratch
        a.la(t6, "scratch");
        a.sw(rs1, t6, static_cast<std::int32_t>((rng_() % 60) & ~3u));
        break;
      }
      case 12: {  // load from scratch
        a.la(t6, "scratch");
        a.lw(rd, t6, static_cast<std::int32_t>((rng_() % 60) & ~3u));
        break;
      }
      case 13: {  // byte store/load pair
        a.la(t6, "scratch");
        a.sb(rs1, t6, static_cast<std::int32_t>(rng_() % 64));
        a.lbu(rd, t6, static_cast<std::int32_t>(rng_() % 64));
        break;
      }
      case 14: {  // short forward branch (never taken backwards: no loops)
        if (!branches_) { a.add(rd, rs1, rs2); break; }
        const std::string lbl = "fz" + std::to_string(label_counter++);
        switch (rng_() % 3) {
          case 0: a.beq(rs1, rs2, lbl); break;
          case 1: a.bltu(rs1, rs2, lbl); break;
          default: a.bne(rs1, rs2, lbl); break;
        }
        open_labels.push_back(lbl);
        break;
      }
      default:
        a.li(rd, static_cast<std::int64_t>(rng_()));
        break;
    }
  }

  std::mt19937 rng_;
  bool branches_;
};

template <typename W>
std::array<std::uint32_t, 32> run_fuzz(const rvasm::Program& p,
                                       const std::array<std::uint32_t, 8>& inputs,
                                       dift::Tag input_tag) {
  MicroVm<W> vm;
  vm.load(p);
  for (int i = 0; i < 8; ++i)
    vm.core.set_reg(static_cast<std::uint8_t>(5 + i),
                    rv::WordOps<W>::make(inputs[i], input_tag));
  vm.core.run(4000);
  std::array<std::uint32_t, 32> out{};
  for (int r = 0; r < 32; ++r) out[r] = rv::WordOps<W>::value(vm.core.reg(r));
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, PlainAndTaintedCoresAgreeBitExactly) {
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  ProgramFuzzer fuzzer(GetParam());
  const auto prog = fuzzer.generate(300);
  std::mt19937 vals(GetParam() ^ 0xabcdef);
  std::array<std::uint32_t, 8> inputs;
  for (auto& v : inputs) v = vals();
  const auto plain = run_fuzz<rv::PlainWord>(prog, inputs, 0);
  const auto tainted = run_fuzz<rv::TaintedWord>(prog, inputs, l.tag_of("HC"));
  for (int r = 0; r < 32; ++r)
    ASSERT_EQ(plain[r], tainted[r]) << "x" << r << " diverged, seed " << GetParam();
}

TEST_P(FuzzSeeds, DynamicTaintSoundness) {
  // Any register whose final value depends on the (tainted) input value must
  // carry a non-bottom tag.
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  const dift::Tag hc = l.tag_of("HC");
  ProgramFuzzer fuzzer(GetParam() + 1000, /*branches=*/false);
  const auto prog = fuzzer.generate(250);

  std::mt19937 vals(GetParam() ^ 0x55aa);
  std::array<std::uint32_t, 8> inputs_a, inputs_b;
  for (auto& v : inputs_a) v = vals();
  inputs_b = inputs_a;
  inputs_b[0] = ~inputs_a[0];  // perturb the tainted input (x5)

  // Reference pair on the plain core to find value-dependent registers.
  const auto ref_a = run_fuzz<rv::PlainWord>(prog, inputs_a, 0);
  const auto ref_b = run_fuzz<rv::PlainWord>(prog, inputs_b, 0);

  // Tainted run: only x5 carries HC.
  MicroVm<rv::TaintedWord> vm;
  vm.load(prog);
  for (int i = 0; i < 8; ++i)
    vm.core.set_reg(static_cast<std::uint8_t>(5 + i),
                    rv::WordOps<rv::TaintedWord>::make(inputs_a[i],
                                                       i == 0 ? hc : 0));
  vm.core.run(4000);

  for (int r = 1; r < 32; ++r) {
    if (ref_a[r] == ref_b[r]) continue;  // not (observably) input-dependent
    EXPECT_EQ(rv::WordOps<rv::TaintedWord>::tag(vm.core.reg(static_cast<std::uint8_t>(r))), hc)
        << "x" << r << " is input-dependent but untagged (seed " << GetParam()
        << ")";
  }
}

// Everything one VP+ run leaves behind that must not depend on whether its
// blocks ran as threaded chains or on the careful path.
struct VpPlusOutcome {
  std::array<std::uint32_t, 32> values{};
  std::array<dift::Tag, 32> tags{};
  std::uint32_t pc = 0;
  std::uint64_t instret = 0;
  std::vector<std::uint8_t> scratch;
  std::vector<dift::Tag> scratch_tags;
  dift::DiftStats stats;
  std::uint64_t lub_calls = 0;  ///< counted by the active DiftContext
};

VpPlusOutcome run_vp_plus(const rvasm::Program& p, const dift::DiftContext& ctx,
                          const dift::SecurityPolicy& policy,
                          const std::array<std::uint32_t, 8>& inputs,
                          dift::Tag x5_tag, bool careful) {
  using Ops = rv::WordOps<rv::TaintedWord>;
  MicroVm<rv::TaintedWord> vm;
  rv::TraceBuffer trace(64);
  if (careful) vm.core.set_trace(&trace);
  vm.core.set_policy(&policy);
  vm.load(p);
  for (int i = 0; i < 8; ++i)
    vm.core.set_reg(static_cast<std::uint8_t>(5 + i),
                    Ops::make(inputs[i], i == 0 ? x5_tag : dift::kBottomTag));
  const std::uint64_t lub_before = ctx.lub_calls();
  vm.core.run(4000);
  VpPlusOutcome out;
  out.lub_calls = ctx.lub_calls() - lub_before;
  for (int r = 0; r < 32; ++r) {
    out.values[r] = Ops::value(vm.core.reg(static_cast<std::uint8_t>(r)));
    out.tags[r] = Ops::tag(vm.core.reg(static_cast<std::uint8_t>(r)));
  }
  out.pc = vm.core.pc();
  out.instret = vm.core.instret();
  const std::size_t off = p.symbol("scratch") - MicroVm<rv::TaintedWord>::kBase;
  out.scratch.assign(vm.ram.dmi_data() + off, vm.ram.dmi_data() + off + 256);
  out.scratch_tags.assign(vm.ram.tags() + off, vm.ram.tags() + off + 256);
  out.stats = vm.core.stats();
  return out;
}

TEST_P(FuzzSeeds, ThreadedChainsMatchCarefulPath) {
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  const dift::Tag hc = l.tag_of("HC");
  // Fetch clearance only: ⊥ code is cleared, so the fetch counters tick on
  // both paths, and no handler check can refuse a fuzzed operand.
  dift::SecurityPolicy policy(l);
  policy.set_execution_clearance({hc, std::nullopt, std::nullopt});
  ProgramFuzzer fuzzer(GetParam() + 2000);
  const auto prog = fuzzer.generate(300);
  std::mt19937 vals(GetParam() ^ 0x7e57);
  std::array<std::uint32_t, 8> inputs;
  for (auto& v : inputs) v = vals();

  for (const dift::Tag x5_tag : {dift::kBottomTag, hc}) {
    SCOPED_TRACE(x5_tag == hc ? "tagged x5 (tainted variant)"
                              : "all-bottom inputs (plain variant)");
    const auto fast = run_vp_plus(prog, ctx, policy, inputs, x5_tag, false);
    const auto careful = run_vp_plus(prog, ctx, policy, inputs, x5_tag, true);
    for (int r = 0; r < 32; ++r) {
      EXPECT_EQ(fast.values[r], careful.values[r]) << "x" << r;
      EXPECT_EQ(fast.tags[r], careful.tags[r]) << "x" << r;
    }
    EXPECT_EQ(fast.pc, careful.pc);
    EXPECT_EQ(fast.instret, careful.instret);
    EXPECT_EQ(fast.scratch, careful.scratch);
    EXPECT_EQ(fast.scratch_tags, careful.scratch_tags);
    // The careful path dispatches every block tainted and checks the span's
    // fetch clearance on each dispatch, so the variant split and
    // flow_checks legitimately differ; every other counter must not.
    const auto& f = fast.stats;
    const auto& c = careful.stats;
    EXPECT_EQ(f.decode_hits, c.decode_hits);
    EXPECT_EQ(f.decode_misses, c.decode_misses);
    EXPECT_EQ(f.block_hits, c.block_hits);
    EXPECT_EQ(f.block_misses, c.block_misses);
    EXPECT_EQ(f.block_invalidations, c.block_invalidations);
    EXPECT_EQ(f.chained_transfers, c.chained_transfers);
    EXPECT_EQ(f.fetch_summary_hits, c.fetch_summary_hits);
    EXPECT_EQ(f.load_summary_hits, c.load_summary_hits);
    EXPECT_EQ(fast.lub_calls, careful.lub_calls);
    // The tagged run starts tainted; once the program overwrites every
    // tagged value it may go back to the plain variant.
    if (x5_tag == dift::kBottomTag) {
      EXPECT_EQ(f.tainted_variant_hits, 0u);
    } else {
      EXPECT_GT(f.tainted_variant_hits, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Self-modifying code: block engine vs. a bus-fetch reference core.
// ---------------------------------------------------------------------------

/// Random programs that rewrite their own code. The code is a few segments,
/// each one block long (ended by `j` or `fence`), run for several rounds.
/// Patchable slots are OP-IMM instructions (addi/slti/sltiu/xori/ori/andi
/// into x5..x15); patch sequences store a new OP-IMM encoding — or a byte or
/// halfword of one, or the bytes the slot already holds — into a slot of
/// the same block (before or after the store), of a later block or of an
/// earlier one; each round ends by flipping an immediate bit of the first
/// slot. Any mix of two such encodings' bytes is again one of them
/// (writing x4..x15), so every patched program stays well-formed.
class SmcFuzzer {
 public:
  explicit SmcFuzzer(std::uint32_t seed) : rng_(seed) {}

  rvasm::Program generate() {
    enum class Item { kSlot, kAlu, kPatch, kBranch };
    std::vector<std::vector<Item>> segs(4 + rng_() % 3);
    std::vector<std::uint32_t> slot_words;
    for (auto& seg : segs) {
      const std::size_t n = 6 + rng_() % 9;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = rng_() % 20;
        const Item item = k < 8 ? Item::kSlot : k < 13 ? Item::kAlu
                        : k < 19 ? Item::kPatch : Item::kBranch;
        if (item == Item::kSlot) slot_words.push_back(random_opimm());
        seg.push_back(item);
      }
    }
    if (slot_words.empty()) {  // at least one slot to patch
      segs.front().push_back(Item::kSlot);
      slot_words.push_back(random_opimm());
    }

    rvasm::Assembler a(MicroVm<rv::PlainWord>::kBase);
    for (std::uint8_t r = 5; r <= 15; ++r)
      a.li(static_cast<rvasm::Reg>(r), static_cast<std::int64_t>(rng_()));
    a.li(s11, 3);  // rounds
    a.label("round");
    std::size_t slot = 0;
    int branches = 0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      a.label("seg" + std::to_string(s));
      std::string open;  // pending forward-branch target
      int open_in = 0;
      for (const Item item : segs[s]) {
        switch (item) {
          case Item::kSlot:
            a.label("slot" + std::to_string(slot));
            a.word(slot_words[slot++]);
            break;
          case Item::kAlu:
            a.add(gp(), gp(), gp());
            a.xor_(gp(), gp(), gp());
            break;
          case Item::kPatch: {
            const std::size_t target = rng_() % slot_words.size();
            const std::uint32_t word =
                rng_() % 6 == 0 ? slot_words[target] : random_opimm();
            a.la(t4, "slot" + std::to_string(target));
            switch (rng_() % 3) {
              case 0:
                a.li(t3, static_cast<std::int64_t>(word));
                a.sw(t3, t4, 0);
                break;
              case 1: {
                const int off = 2 * static_cast<int>(rng_() % 2);
                a.li(t3, static_cast<std::int64_t>((word >> (8 * off)) & 0xffff));
                a.sh(t3, t4, off);
                break;
              }
              default: {
                const int off = static_cast<int>(rng_() % 4);
                a.li(t3, static_cast<std::int64_t>((word >> (8 * off)) & 0xff));
                a.sb(t3, t4, off);
                break;
              }
            }
            break;
          }
          case Item::kBranch:
            if (!open.empty()) break;
            open = "fwd" + std::to_string(branches++);
            open_in = 1 + static_cast<int>(rng_() % 3);
            a.bltu(gp(), gp(), open);
            break;
        }
        if (!open.empty() && item != Item::kBranch && --open_in == 0) {
          a.label(open);
          open.clear();
        }
      }
      if (!open.empty()) a.label(open);
      if (s + 1 == segs.size()) {
        // Flip an immediate bit of the first slot every round, so a cached
        // block always changes at least once.
        a.la(t4, "slot0");
        a.lw(t3, t4, 0);
        a.li(t5, 1 << 20);
        a.xor_(t3, t3, t5);
        a.sw(t3, t4, 0);
        a.addi(s11, s11, -1);
        a.bnez(s11, "round");
        a.label("park");
        a.j("park");
      } else if (rng_() % 2) {
        a.j("seg" + std::to_string(s + 1));
      } else {
        a.fence();
      }
    }
    a.label("code_end");
    return a.assemble();
  }

 private:
  rvasm::Reg gp() { return static_cast<rvasm::Reg>(5 + rng_() % 11); }

  std::uint32_t random_opimm() {
    static constexpr std::uint32_t kFunct3[] = {0, 2, 3, 4, 6, 7};
    const std::uint32_t imm = rng_() & 0xfff;
    return imm << 20 | std::uint32_t(gp()) << 15 | kFunct3[rng_() % 6] << 12 |
           std::uint32_t(gp()) << 7 | 0x13;
  }

  std::mt19937 rng_;
};

struct SmcOutcome {
  std::array<std::uint32_t, 32> regs{};
  std::uint32_t pc = 0;
  std::uint64_t instret = 0;
  std::vector<std::uint8_t> code;
};

constexpr std::uint64_t kSmcBudget = 6000;

/// Reference: no DMI window, so every instruction is fetched over the bus
/// (the core's step_slow path) and a store into code takes effect at once.
SmcOutcome run_smc_reference(const rvasm::Program& p) {
  constexpr std::uint64_t kBase = MicroVm<rv::PlainWord>::kBase;
  sysc::Simulation sim;
  tlmlite::Bus bus{sim, "bus"};
  soc::Memory ram{sim, "ram", 64 * 1024, false};
  rv::Core<rv::PlainWord> core;
  bus.map(kBase, ram.size(), ram.socket(), "ram");
  core.set_bus(bus);
  ram.load_image(p, kBase);
  core.set_pc(static_cast<std::uint32_t>(p.entry));
  core.run(kSmcBudget);
  SmcOutcome out;
  for (int r = 0; r < 32; ++r) out.regs[r] = core.reg(static_cast<std::uint8_t>(r));
  out.pc = core.pc();
  out.instret = core.instret();
  out.code.assign(ram.dmi_data(), ram.dmi_data() + (p.symbol("code_end") - kBase));
  EXPECT_EQ(core.stats().block_misses, 0u);  // no block ever ran
  return out;
}

template <typename W>
SmcOutcome run_smc_blocks(const rvasm::Program& p, dift::Tag x5_tag,
                          std::uint64_t* invalidations) {
  using Ops = rv::WordOps<W>;
  MicroVm<W> vm;
  vm.load(p);
  // The prologue's li overwrites x5 with the same value but keeps no tag;
  // tagging x31 (read only by mixed encodings) keeps the tainted variant.
  vm.core.set_reg(31, Ops::make(0, x5_tag));
  vm.core.run(kSmcBudget);
  SmcOutcome out;
  for (int r = 0; r < 32; ++r)
    out.regs[r] = Ops::value(vm.core.reg(static_cast<std::uint8_t>(r)));
  out.pc = vm.core.pc();
  out.instret = vm.core.instret();
  out.code.assign(vm.ram.dmi_data(),
                  vm.ram.dmi_data() + (p.symbol("code_end") - MicroVm<W>::kBase));
  *invalidations = vm.core.stats().block_invalidations;
  return out;
}

void expect_same_smc_outcome(const SmcOutcome& got, const SmcOutcome& want) {
  for (int r = 0; r < 32; ++r) EXPECT_EQ(got.regs[r], want.regs[r]) << "x" << r;
  EXPECT_EQ(got.pc, want.pc);
  EXPECT_EQ(got.instret, want.instret);
  EXPECT_EQ(got.code, want.code);
}

TEST_P(FuzzSeeds, SelfModifyingCodeMatchesBusFetchReference) {
  const dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  const auto prog = SmcFuzzer(GetParam() + 3000).generate();
  const SmcOutcome ref = run_smc_reference(prog);
  ASSERT_EQ(ref.pc, prog.symbol("park")) << "program did not finish its rounds";
  std::uint64_t invalidations = 0;
  {
    SCOPED_TRACE("VP");
    expect_same_smc_outcome(
        run_smc_blocks<rv::PlainWord>(prog, dift::kBottomTag, &invalidations), ref);
    EXPECT_GT(invalidations, 0u);  // some patch changed a cached block
  }
  {
    SCOPED_TRACE("VP+ plain variant");
    expect_same_smc_outcome(
        run_smc_blocks<rv::TaintedWord>(prog, dift::kBottomTag, &invalidations), ref);
  }
  {
    SCOPED_TRACE("VP+ tainted variant");
    expect_same_smc_outcome(
        run_smc_blocks<rv::TaintedWord>(prog, l.tag_of("HC"), &invalidations), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzSeeds,
                         ::testing::Range(0u, 25u));

// The same differential sweep through the campaign engine: every seed is an
// independent job on the work-stealing pool (worker count from VPDIFT_JOBS,
// default 4), and the parallel results must be bit-identical to a serial
// run of the very same computation — the archetypal guard for the
// thread_local active-context refactor, since each worker installs its own
// DiftContext while the others are mid-simulation.
TEST(FuzzCampaign, ParallelSeedsBitIdenticalToSerial) {
  constexpr std::uint32_t kSeeds = 25;
  struct SeedOutcome {
    std::array<std::uint32_t, 32> plain{};
    std::array<std::uint32_t, 32> tainted{};
  };
  const auto fuzz_one = [](std::uint32_t seed) {
    const dift::Lattice l = dift::Lattice::ifp1();
    dift::DiftContext ctx(l);
    ProgramFuzzer fuzzer(seed);
    const auto prog = fuzzer.generate(300);
    std::mt19937 vals(seed ^ 0xabcdef);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) v = vals();
    SeedOutcome out;
    out.plain = run_fuzz<rv::PlainWord>(prog, inputs, 0);
    out.tainted = run_fuzz<rv::TaintedWord>(prog, inputs, l.tag_of("HC"));
    return out;
  };

  std::vector<SeedOutcome> serial(kSeeds);
  for (std::uint32_t s = 0; s < kSeeds; ++s) serial[s] = fuzz_one(s);

  std::vector<SeedOutcome> parallel(kSeeds);
  campaign::ThreadPool pool(campaign::ThreadPool::jobs_from_env(4));
  pool.parallel_for(kSeeds, [&](std::size_t s) {
    parallel[s] = fuzz_one(static_cast<std::uint32_t>(s));
  });

  for (std::uint32_t s = 0; s < kSeeds; ++s) {
    ASSERT_EQ(serial[s].plain, parallel[s].plain) << "seed " << s;
    ASSERT_EQ(serial[s].tainted, parallel[s].tainted) << "seed " << s;
  }
}

// Regression fuzz for the register-width clamp: before the fix, a payload
// longer than 4 bytes made the peripherals' rd_u32/wr_u32 helpers evaluate
// `v >> (8*i)` for i >= 4 — undefined behaviour — and left the tail of a
// read payload untouched. Randomized widths at every register must yield
// zero-filled tails, bottom tags, and (under UBSan) no shift UB.
TEST(RegisterWidthFuzz, OversizedDmaAndUartAccessesClamp) {
  dift::Lattice l = dift::Lattice::ifp1();
  dift::DiftContext ctx(l);
  sysc::Simulation sim;
  soc::Dma dma(sim, "dma0", /*tainted_mode=*/true);
  soc::Uart uart(sim, "uart0");

  const std::uint64_t dma_regs[] = {soc::Dma::kSrc, soc::Dma::kDst,
                                    soc::Dma::kLen, soc::Dma::kCtrl,
                                    soc::Dma::kStatus};
  const std::uint64_t uart_regs[] = {soc::Uart::kTxData, soc::Uart::kRxData,
                                     soc::Uart::kStatus, soc::Uart::kIe};

  std::mt19937 rng(0xd1f7);
  for (int iter = 0; iter < 400; ++iter) {
    const bool use_dma = rng() % 2 == 0;
    tlmlite::TargetSocket& sock = use_dma ? dma.socket() : uart.socket();
    const std::uint64_t addr = use_dma ? dma_regs[rng() % 5]
                                       : uart_regs[rng() % 4];
    const std::uint32_t n = 1 + rng() % 8;

    std::uint8_t buf[8];
    dift::Tag tags[8];
    for (std::uint32_t i = 0; i < n; ++i) {
      buf[i] = static_cast<std::uint8_t>(rng());
      tags[i] = dift::kBottomTag;
    }
    tlmlite::Payload p;
    p.command = rng() % 2 ? tlmlite::Command::kRead : tlmlite::Command::kWrite;
    p.address = addr;
    p.data = buf;
    p.tags = rng() % 2 ? tags : nullptr;
    p.length = n;
    sysc::Time d;
    sock.b_transport(p, d);
    ASSERT_TRUE(p.ok()) << "addr=" << std::hex << addr << " len=" << n;

    if (p.command == tlmlite::Command::kRead) {
      for (std::uint32_t i = 4; i < n; ++i)
        ASSERT_EQ(buf[i], 0u) << "tail byte " << i << " of read @" << std::hex
                              << addr << " not clamped to zero";
      if (p.tainted()) {
        for (std::uint32_t i = 0; i < n; ++i)
          ASSERT_EQ(tags[i], dift::kBottomTag);
      }
    }
  }
}

}  // namespace
