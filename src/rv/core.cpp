#include "rv/core.hpp"
#include <algorithm>
#include <cstring>
#include <type_traits>

#include "dift/context.hpp"

namespace vpdift::rv {

using dift::Tag;
using dift::ViolationKind;

template <typename W>
template <std::uint32_t SZ, bool TAGS>
inline auto Core<W>::dmi_load(std::uint64_t off) -> MemAccess {
  std::uint32_t value = 0;
  std::memcpy(&value, dmi_data_ + off, SZ);  // host is little-endian
  Tag tag = dift::kBottomTag;
  if constexpr (TAGS) {
    if (shadow_ && shadow_->uniform(off, SZ, &tag)) {
      ++stats_.load_summary_hits;
    } else {
      const Tag* p = dmi_tags_ + off;
      tag = p[0];
      if constexpr (SZ > 1) {
        using U = std::conditional_t<SZ == 2, std::uint16_t, std::uint32_t>;
        U word;
        std::memcpy(&word, p, SZ);
        if (word != static_cast<U>(tag * static_cast<U>(U(~U{0}) / 0xff)))
          for (std::uint32_t i = 1; i < SZ; ++i) tag = dift::lub(tag, p[i]);
      }
    }
  }
  return {value, tag, false};
}

template <typename W>
template <std::uint32_t SZ, bool TAGS>
inline void Core<W>::dmi_store(std::uint64_t off, std::uint32_t value, Tag tag) {
  std::memcpy(dmi_data_ + off, &value, SZ);  // host is little-endian
  dmi_written_[off >> kWrittenPageShift] = 1;
  if constexpr (SZ > 1) dmi_written_[(off + SZ - 1) >> kWrittenPageShift] = 1;
  if constexpr (TAGS) {
    Tag cur = dift::kBottomTag;
    if (shadow_ && shadow_->uniform(off, SZ, &cur) && cur == tag) return;
    std::memset(dmi_tags_ + off, tag, SZ);
    if (shadow_) shadow_->on_store(off, SZ, tag);
  }
}

// ---------------------------------------------------------------------------
// Per-instruction handlers.
//
// Every Op has one handler function per Core instantiation. execute() and
// the careful block loop call it through the table (CoreOps::entry); the
// cleared block path runs it through its threaded entry th<>, which the
// block builder stores in each micro-op. Both reach the same handler, so the
// slow (bus-fetch) path and the block path share semantics by construction.
// Handlers read the current instruction pc from `c.pc_` and leave the
// successor pc in `c.next_pc_` (pre-set to pc + len by the caller).
//
// Taint semantics mirror the Taint<T> operators (paper Fig. 3): reg-reg ALU
// results take the LUB of the operand tags — with an untainted-operand fast
// path that skips the LUB machinery when both tags are ⊥ — while reg-imm
// forms propagate rs1's tag (immediates are untagged). In the plain
// instantiation all tag code compiles away.
// ---------------------------------------------------------------------------

template <typename W>
struct CoreOps {
  using C = Core<W>;
  using Ops = WordOps<W>;
  static constexpr bool kT = Ops::kTainted;
  using Fn = typename C::ExecFn;
  using ThreadFn = typename C::ThreadFn;
  using MicroOp = typename C::MicroOp;

  struct OpInfo {
    Fn fn;             ///< full (tainted) handler, unthreaded
    ThreadFn th;       ///< threaded entry of fn
    ThreadFn th_fast;  ///< threaded entry of the plain-variant handler
    bool mem;          ///< load/store: can raise IRQs / modify code mid-block
    bool cf;           ///< conditional branch: exits the block only when taken
    bool terminator;   ///< ends a translated block
  };

  // ---- ALU value functions ----
  static constexpr std::uint32_t f_add(std::uint32_t a, std::uint32_t b) { return a + b; }
  static constexpr std::uint32_t f_sub(std::uint32_t a, std::uint32_t b) { return a - b; }
  static constexpr std::uint32_t f_xor(std::uint32_t a, std::uint32_t b) { return a ^ b; }
  static constexpr std::uint32_t f_or(std::uint32_t a, std::uint32_t b) { return a | b; }
  static constexpr std::uint32_t f_and(std::uint32_t a, std::uint32_t b) { return a & b; }
  static constexpr std::uint32_t f_sll(std::uint32_t a, std::uint32_t b) { return a << (b & 31); }
  static constexpr std::uint32_t f_srl(std::uint32_t a, std::uint32_t b) { return a >> (b & 31); }
  static constexpr std::uint32_t f_sra(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
  }
  static constexpr std::uint32_t f_slt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1u : 0u;
  }
  static constexpr std::uint32_t f_sltu(std::uint32_t a, std::uint32_t b) {
    return a < b ? 1u : 0u;
  }
  static constexpr std::uint32_t f_mul(std::uint32_t a, std::uint32_t b) { return a * b; }
  static constexpr std::uint32_t f_mulh(std::uint32_t a, std::uint32_t b) {
    const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                           static_cast<std::int64_t>(static_cast<std::int32_t>(b));
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
  }
  static constexpr std::uint32_t f_mulhsu(std::uint32_t a, std::uint32_t b) {
    const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                           static_cast<std::int64_t>(std::uint64_t(b));
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
  }
  static constexpr std::uint32_t f_mulhu(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::uint32_t>((std::uint64_t(a) * std::uint64_t(b)) >> 32);
  }
  static constexpr std::uint32_t f_div(std::uint32_t a, std::uint32_t b) {
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    if (sb == 0) return 0xffffffffu;
    if (sa == INT32_MIN && sb == -1) return static_cast<std::uint32_t>(INT32_MIN);
    return static_cast<std::uint32_t>(sa / sb);
  }
  static constexpr std::uint32_t f_divu(std::uint32_t a, std::uint32_t b) {
    return b == 0 ? 0xffffffffu : a / b;
  }
  static constexpr std::uint32_t f_rem(std::uint32_t a, std::uint32_t b) {
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    if (sb == 0) return a;
    if (sa == INT32_MIN && sb == -1) return 0;
    return static_cast<std::uint32_t>(sa % sb);
  }
  static constexpr std::uint32_t f_remu(std::uint32_t a, std::uint32_t b) {
    return b == 0 ? a : a % b;
  }

  // ---- branch predicates ----
  static constexpr bool p_eq(std::uint32_t a, std::uint32_t b) { return a == b; }
  static constexpr bool p_ne(std::uint32_t a, std::uint32_t b) { return a != b; }
  static constexpr bool p_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
  }
  static constexpr bool p_ge(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
  }
  static constexpr bool p_ltu(std::uint32_t a, std::uint32_t b) { return a < b; }
  static constexpr bool p_geu(std::uint32_t a, std::uint32_t b) { return a >= b; }

  // ---- handler templates ----
  //
  // The PLAIN=true instantiations are the taint-liveness-specialized
  // variants: valid only while Core::plain_state() holds (whole shadow plane
  // uniformly ⊥, all register tags ⊥, every clearance admits ⊥-tagged
  // execution), where each tag-related check is statically known to pass and
  // each produced tag is statically known to be ⊥ — so dropping them keeps
  // enforcement throws and monitor records exact (only the flow_checks
  // counter stops ticking for the elided always-allowed checks). Ops that
  // can *introduce* taint (bus loads: tagged peripheral data, DMA side
  // effects) run the full semantics and raise taint_break_ so no later op
  // of the block executes plainly. For the plain instantiation both
  // variants compile to the same code.

  template <std::uint32_t (*F)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_rr(C& c, const Insn& d) {
    const std::uint32_t v = F(c.rv(d.rs1), c.rv(d.rs2));
    if constexpr (kT && !PLAIN) {
      const Tag t1 = c.rt(d.rs1), t2 = c.rt(d.rs2);
      if ((t1 | t2) == 0)  // untainted fast path: no LUB needed
        c.wr(d.rd, v, dift::kBottomTag);
      else
        c.wr(d.rd, v, dift::lub(t1, t2));
    } else {
      c.wr(d.rd, v, dift::kBottomTag);
    }
  }

  template <std::uint32_t (*F)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_ri(C& c, const Insn& d) {
    if constexpr (kT && !PLAIN)
      c.wr(d.rd, F(c.rv(d.rs1), static_cast<std::uint32_t>(d.imm)), c.rt(d.rs1));
    else
      c.wr(d.rd, F(c.rv(d.rs1), static_cast<std::uint32_t>(d.imm)),
           dift::kBottomTag);
  }

  template <bool (*P)(std::uint32_t, std::uint32_t), bool PLAIN = false>
  static void h_br(C& c, const Insn& d) {
    const bool taken = P(c.rv(d.rs1), c.rv(d.rs2));
    if constexpr (kT && !PLAIN)
      c.check(c.branch_, Ops::combine(c.rt(d.rs1), c.rt(d.rs2)),
              ViolationKind::kBranchClearance, 0, "core.branch");
    if (taken) {
      const std::uint32_t target = c.pc_ + static_cast<std::uint32_t>(d.imm);
      if (target & 1) c.take_trap(kCauseInsnMisaligned, target);
      else c.next_pc_ = target;
    }
  }

  template <std::uint32_t SZ, bool SIGN>
  static constexpr std::uint32_t extend(std::uint32_t v) {
    if constexpr (SIGN && SZ == 1)
      return static_cast<std::uint32_t>(static_cast<std::int8_t>(v));
    else if constexpr (SIGN && SZ == 2)
      return static_cast<std::uint32_t>(static_cast<std::int16_t>(v));
    else
      return v;
  }

  // Loads and stores come in two halves. The DMI half (dmi_ld/dmi_st)
  // returns false, having changed nothing but a monitor-mode record of the
  // address check, when the access needs the bus half (bus_ld/bus_st): an
  // address outside the DMI window, a protected store, or a store into a
  // marked code line. The handler (h_mem) runs one after the other; the
  // threaded entry (th_mem) enters the out-of-line bus half with a tail
  // call, so the DMI path needs no stack frame.
  template <std::uint32_t SZ, bool SIGN, bool PLAIN>
  static bool dmi_ld(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    if constexpr (kT && !PLAIN)
      c.check(c.mem_addr_, c.rt(d.rs1), ViolationKind::kMemAddrClearance, addr,
              "core.lsu");
    if (!c.dmi_covers(addr, SZ)) return false;
    const std::uint64_t off = addr - c.dmi_base_;
    if constexpr (kT && PLAIN) {
      // The plane is uniformly ⊥ (plain-state invariant), so the result
      // tag is ⊥ and the summary hit is unconditional — the counter
      // stays in lockstep with the tainted variant.
      const auto m = c.template dmi_load<SZ, false>(off);
      ++c.stats_.load_summary_hits;
      c.wr(d.rd, extend<SZ, SIGN>(m.value), dift::kBottomTag);
    } else {
      const auto m = c.template dmi_load<SZ, kT>(off);
      c.wr(d.rd, extend<SZ, SIGN>(m.value), m.tag);
    }
    return true;
  }

  template <std::uint32_t SZ, bool SIGN, bool PLAIN>
  [[gnu::noinline]] static void bus_ld(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    const auto m = c.template bus_load<SZ>(addr);
    if (m.fault) {
      c.take_trap(kCauseLoadAccessFault, addr);
      return;
    }
    c.wr(d.rd, extend<SZ, SIGN>(m.value), m.tag);
    if constexpr (kT && PLAIN) {
      // Bus/MMIO load: the device may hand back tagged data, or DMA behind
      // our back — note the tag for the gate and promote before the next op.
      c.note_reg_tag(m.tag);
      if (m.tag != dift::kBottomTag || (c.shadow_ && !c.shadow_->all_bottom()))
        c.taint_break_ = true;
    }
  }

  template <std::uint32_t SZ, bool PLAIN>
  static bool dmi_st(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    if constexpr (kT && !PLAIN)
      c.check(c.mem_addr_, c.rt(d.rs1), ViolationKind::kMemAddrClearance, addr,
              "core.lsu");
    // The plain variant stores ⊥-tagged data over a ⊥ plane, which leaves
    // plane and summary untouched, and plain_state() verified every
    // store-protection clearance admits ⊥ — no checks needed. The tainted
    // variant leaves the DMI shortcut to store() while store protection is
    // configured, so the check stays in one place.
    if (!c.dmi_covers(addr, SZ) || (kT && !PLAIN && c.has_store_prot_)) return false;
    const std::uint64_t off = addr - c.dmi_base_;
    if (c.template code_hit<SZ>(off)) return false;
    c.template dmi_store<SZ, kT && !PLAIN>(off, c.rv(d.rs2), c.rt(d.rs2));
    return true;
  }

  template <std::uint32_t SZ, bool PLAIN>
  [[gnu::noinline]] static void bus_st(C& c, const Insn& d) {
    const std::uint32_t addr = c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm);
    const Tag tag = PLAIN ? dift::kBottomTag : c.rt(d.rs2);
    if (c.dmi_covers(addr, SZ) && (!kT || PLAIN || !c.has_store_prot_)) {
      // Into a marked code line.
      c.code_write(addr - c.dmi_base_, SZ);
      c.template dmi_store<SZ, kT && !PLAIN>(addr - c.dmi_base_, c.rv(d.rs2), tag);
      return;
    }
    // MMIO store (peripheral clearances) or protected store.
    if (c.template store<SZ>(addr, c.rv(d.rs2), tag))
      c.take_trap(kCauseStoreAccessFault, addr);
  }

  template <bool (*DMI)(C&, const Insn&), Fn BUS>
  static void h_mem(C& c, const Insn& d) {
    if (!DMI(c, d)) BUS(c, d);
  }

  static void h_lui(C& c, const Insn& d) {
    c.wr(d.rd, static_cast<std::uint32_t>(d.imm), dift::kBottomTag);
  }
  static void h_auipc(C& c, const Insn& d) {
    c.wr(d.rd, c.pc_ + static_cast<std::uint32_t>(d.imm), dift::kBottomTag);
  }
  static void h_jal(C& c, const Insn& d) {
    const std::uint32_t target = c.pc_ + static_cast<std::uint32_t>(d.imm);
    if (target & 1) { c.take_trap(kCauseInsnMisaligned, target); return; }
    c.wr(d.rd, c.pc_ + d.len, dift::kBottomTag);
    c.next_pc_ = target;
  }
  static void h_jalr(C& c, const Insn& d) {
    const std::uint32_t target =
        (c.rv(d.rs1) + static_cast<std::uint32_t>(d.imm)) & ~1u;
    if constexpr (kT)  // indirect jump: the target acts as the "branch condition"
      c.check(c.branch_, c.rt(d.rs1), ViolationKind::kBranchClearance, target,
              "core.jalr");
    if (target & 1) { c.take_trap(kCauseInsnMisaligned, target); return; }
    c.wr(d.rd, c.pc_ + d.len, dift::kBottomTag);
    c.next_pc_ = target;
  }
  static void h_fence(C&, const Insn&) {}  // single hart, loosely timed: no-op
  static void h_ecall(C& c, const Insn&) { c.take_trap(kCauseEcallM, 0); }
  static void h_ebreak(C& c, const Insn&) { c.take_trap(kCauseBreakpoint, c.pc_); }
  static void h_csr(C& c, const Insn& d) { c.do_csr(d); }
  static void h_mret(C& c, const Insn&) {
    auto& s = c.csrs_;
    std::uint32_t m = s.mstatus.value;
    const bool mpie = (m & kMstatusMpie) != 0;
    m &= ~kMstatusMie;
    if (mpie) m |= kMstatusMie;
    m |= kMstatusMpie;
    s.mstatus.value = m;
    if constexpr (kT)
      c.check(c.branch_, s.mepc.tag, ViolationKind::kBranchClearance, s.mepc.value,
              "core.mret");
    c.next_pc_ = s.mepc.value;
  }
  static void h_wfi(C& c, const Insn&) {
    if ((c.csrs_.mip & c.csrs_.mie) == 0) c.wfi_ = true;
  }
  static void h_illegal(C& c, const Insn& d) { c.take_trap(kCauseIllegalInsn, d.raw); }

  // ---- threaded dispatch ----
  //
  // th<H> is the micro-op entry of the cleared block path: it sets `pc_`
  // and `next_pc_` from the op, runs handler H, and unless one of the exit
  // rules below holds, enters the next micro-op of the block with a tail
  // call, so a dispatch is one chain of indirect jumps. The chain returns
  // the op it ended at to exec_cleared() when
  //  * the op is the last one of this dispatch (`th_last_`, which carries
  //    the budget clamp, so a pending fault trigger stops it exactly);
  //  * a conditional branch (CF) trapped or was taken (every other
  //    trapping op is a load, a store or a terminator);
  //  * after a load or store (MEM), an enabled interrupt is pending;
  //  * a load or store took its bus half (BUS) and trapped, wrote into
  //    the executing block (`smc_break_`) or, on the plain variant,
  //    brought in a live tag (`taint_break_`). A DMI access can do none
  //    of these.
  // No entry touches `instret_`: exec_cleared() retires the chain's ops at
  // its exit. The CSR entry (CSR), whose handler reads `instret_` through
  // the counter CSRs, first counts the ops of the chain before it.
  // g++ -O2 compiles the tail call to `jmp *`. Without tail calls (-O0)
  // the chain recurses instead, at most kMaxBlockOps frames deep.
  template <bool PLAIN, bool CF, bool MEM, bool BUS>
  [[gnu::always_inline]] static const MicroOp* chain(C& c, const MicroOp& op,
                                                      std::uint32_t seq) {
    if (&op == c.th_last_) return &op;
    if constexpr (BUS || CF) {
      if (c.trapped_) return &op;
    }
    if constexpr (CF) {
      if (c.next_pc_ != seq) return &op;  // taken branch left the block
    }
    if constexpr (MEM) {
      if ((c.csrs_.mip & c.csrs_.mie) != 0) return &op;
    }
    if constexpr (BUS) {
      if (c.smc_break_ || (PLAIN && c.taint_break_)) return &op;
    }
    const MicroOp& next = (&op)[1];
    return (PLAIN ? next.fast : next.fn)(c, next);
  }

  template <Fn H, bool PLAIN, bool CF, bool CSR>
  static const MicroOp* th(C& c, const MicroOp& op) {
    const std::uint32_t seq = op.pc + op.insn.len;
    c.pc_ = op.pc;
    c.next_pc_ = seq;
    if constexpr (CSR) {
      c.instret_ += static_cast<std::uint64_t>(&op - c.th_first_);
      c.th_first_ = &op;
    }
    H(c, op.insn);
    return chain<PLAIN, CF, false, false>(c, op, seq);
  }

  template <bool (*DMI)(C&, const Insn&), Fn BUS, bool PLAIN>
  static const MicroOp* th_mem(C& c, const MicroOp& op) {
    const std::uint32_t seq = op.pc + op.insn.len;
    c.pc_ = op.pc;
    c.next_pc_ = seq;
    if (!DMI(c, op.insn)) [[unlikely]]
      return th_bus<BUS, PLAIN>(c, op);
    return chain<PLAIN, false, true, false>(c, op, seq);
  }

  template <Fn BUS, bool PLAIN>
  [[gnu::noinline]] static const MicroOp* th_bus(C& c, const MicroOp& op) {
    BUS(c, op.insn);
    return chain<PLAIN, false, true, true>(c, op, op.pc + op.insn.len);
  }

  // Table entry for full handler H and plain-variant handler HF. The plain
  // core has no variant split: its plain slot aliases the full entry.
  template <Fn H, Fn HF = H, bool CF = false, bool CSR = false>
  static constexpr OpInfo info() {
    ThreadFn fast = &th<H, false, CF, CSR>;
    if constexpr (kT) fast = &th<HF, true, CF, CSR>;
    return {H, &th<H, false, CF, CSR>, fast, false, CF, false};
  }

  // Table entry for a load or store: DMI and bus halves of the full (D, B)
  // and of the plain variant (DP, BP).
  template <bool (*D)(C&, const Insn&), Fn B, bool (*DP)(C&, const Insn&), Fn BP>
  static constexpr OpInfo info_mem() {
    ThreadFn fast = &th_mem<D, B, false>;
    if constexpr (kT) fast = &th_mem<DP, BP, true>;
    return {&h_mem<D, B>, &th_mem<D, B, false>, fast, true, false, false};
  }
  template <std::uint32_t SZ, bool SIGN>
  static constexpr OpInfo info_ld() {
    return info_mem<&dmi_ld<SZ, SIGN, false>, &bus_ld<SZ, SIGN, false>,
                    &dmi_ld<SZ, SIGN, true>, &bus_ld<SZ, SIGN, true>>();
  }
  template <std::uint32_t SZ>
  static constexpr OpInfo info_st() {
    return info_mem<&dmi_st<SZ, false>, &bus_st<SZ, false>, &dmi_st<SZ, true>,
                    &bus_st<SZ, true>>();
  }

  // ---- dispatch table, indexed by Op ----
  //
  // Terminators (jal/jalr/mret/csr/fence/ecall/ebreak/wfi/illegal) keep the
  // full handler in the plain slot: they run at most once per block, and
  // their tag checks (mepc/mtvec tags, CSR tag propagation into rd) depend
  // on CSR state the plain-state gate does not track.
  static constexpr std::array<OpInfo, kNumOps> make_table() {
    std::array<OpInfo, kNumOps> t{};
    for (auto& e : t) {
      e = info<&h_illegal>();
      e.terminator = true;
    }
    // The terminator flag is derived from rv::is_block_terminator so the
    // block builder and the static analyzer's window replication can never
    // disagree about where a translated block ends.
    auto set = [&](Op op, OpInfo e) {
      e.terminator = is_block_terminator(op);
      t[static_cast<std::size_t>(op)] = e;
    };
    set(Op::kLui, info<&h_lui>());
    set(Op::kAuipc, info<&h_auipc>());
    set(Op::kJal, info<&h_jal>());
    set(Op::kJalr, info<&h_jalr>());
    set(Op::kBeq, info<&h_br<&p_eq>, &h_br<&p_eq, true>, true>());
    set(Op::kBne, info<&h_br<&p_ne>, &h_br<&p_ne, true>, true>());
    set(Op::kBlt, info<&h_br<&p_lt>, &h_br<&p_lt, true>, true>());
    set(Op::kBge, info<&h_br<&p_ge>, &h_br<&p_ge, true>, true>());
    set(Op::kBltu, info<&h_br<&p_ltu>, &h_br<&p_ltu, true>, true>());
    set(Op::kBgeu, info<&h_br<&p_geu>, &h_br<&p_geu, true>, true>());
    set(Op::kLb, info_ld<1, true>());
    set(Op::kLh, info_ld<2, true>());
    set(Op::kLw, info_ld<4, false>());
    set(Op::kLbu, info_ld<1, false>());
    set(Op::kLhu, info_ld<2, false>());
    set(Op::kSb, info_st<1>());
    set(Op::kSh, info_st<2>());
    set(Op::kSw, info_st<4>());
    set(Op::kAddi, info<&h_ri<&f_add>, &h_ri<&f_add, true>>());
    set(Op::kSlti, info<&h_ri<&f_slt>, &h_ri<&f_slt, true>>());
    set(Op::kSltiu, info<&h_ri<&f_sltu>, &h_ri<&f_sltu, true>>());
    set(Op::kXori, info<&h_ri<&f_xor>, &h_ri<&f_xor, true>>());
    set(Op::kOri, info<&h_ri<&f_or>, &h_ri<&f_or, true>>());
    set(Op::kAndi, info<&h_ri<&f_and>, &h_ri<&f_and, true>>());
    set(Op::kSlli, info<&h_ri<&f_sll>, &h_ri<&f_sll, true>>());
    set(Op::kSrli, info<&h_ri<&f_srl>, &h_ri<&f_srl, true>>());
    set(Op::kSrai, info<&h_ri<&f_sra>, &h_ri<&f_sra, true>>());
    set(Op::kAdd, info<&h_rr<&f_add>, &h_rr<&f_add, true>>());
    set(Op::kSub, info<&h_rr<&f_sub>, &h_rr<&f_sub, true>>());
    set(Op::kSll, info<&h_rr<&f_sll>, &h_rr<&f_sll, true>>());
    set(Op::kSlt, info<&h_rr<&f_slt>, &h_rr<&f_slt, true>>());
    set(Op::kSltu, info<&h_rr<&f_sltu>, &h_rr<&f_sltu, true>>());
    set(Op::kXor, info<&h_rr<&f_xor>, &h_rr<&f_xor, true>>());
    set(Op::kSrl, info<&h_rr<&f_srl>, &h_rr<&f_srl, true>>());
    set(Op::kSra, info<&h_rr<&f_sra>, &h_rr<&f_sra, true>>());
    set(Op::kOr, info<&h_rr<&f_or>, &h_rr<&f_or, true>>());
    set(Op::kAnd, info<&h_rr<&f_and>, &h_rr<&f_and, true>>());
    set(Op::kFence, info<&h_fence>());
    set(Op::kEcall, info<&h_ecall>());
    set(Op::kEbreak, info<&h_ebreak>());
    set(Op::kMul, info<&h_rr<&f_mul>, &h_rr<&f_mul, true>>());
    set(Op::kMulh, info<&h_rr<&f_mulh>, &h_rr<&f_mulh, true>>());
    set(Op::kMulhsu, info<&h_rr<&f_mulhsu>, &h_rr<&f_mulhsu, true>>());
    set(Op::kMulhu, info<&h_rr<&f_mulhu>, &h_rr<&f_mulhu, true>>());
    set(Op::kDiv, info<&h_rr<&f_div>, &h_rr<&f_div, true>>());
    set(Op::kDivu, info<&h_rr<&f_divu>, &h_rr<&f_divu, true>>());
    set(Op::kRem, info<&h_rr<&f_rem>, &h_rr<&f_rem, true>>());
    set(Op::kRemu, info<&h_rr<&f_remu>, &h_rr<&f_remu, true>>());
    set(Op::kCsrrw, info<&h_csr, &h_csr, false, true>());
    set(Op::kCsrrs, info<&h_csr, &h_csr, false, true>());
    set(Op::kCsrrc, info<&h_csr, &h_csr, false, true>());
    set(Op::kCsrrwi, info<&h_csr, &h_csr, false, true>());
    set(Op::kCsrrsi, info<&h_csr, &h_csr, false, true>());
    set(Op::kCsrrci, info<&h_csr, &h_csr, false, true>());
    set(Op::kMret, info<&h_mret>());
    set(Op::kWfi, info<&h_wfi>());
    return t;
  }
  static constexpr std::array<OpInfo, kNumOps> kTable = make_table();

  static const OpInfo& entry(Op op) { return kTable[static_cast<std::size_t>(op)]; }
};

template <typename W>
Core<W>::Core(std::string name) : name_(std::move(name)) {}

template <typename W>
void Core<W>::set_dmi(std::uint8_t* data, Tag* tags, std::uint8_t* written,
                      std::uint8_t* code_lines, std::uint64_t* code_epoch,
                      std::uint64_t base, std::uint64_t size,
                      dift::ShadowSummary* shadow) {
  invalidate_blocks();  // unmarks the lines of the previous window
  dmi_data_ = data;
  dmi_tags_ = tags;
  dmi_written_ = written;
  code_lines_ = code_lines;
  code_epoch_ = code_epoch;
  dmi_base_ = base;
  dmi_size_ = size;
  shadow_ = shadow;
}

template <typename W>
void Core<W>::invalidate_blocks() {
  blocks_.clear();
  if (code_lo_ < code_hi_)
    std::memset(code_lines_ + code_lo_, 0, code_hi_ - code_lo_);
  code_lo_ = ~std::uint64_t{0};
  code_hi_ = 0;
  cur_block_lo_ = cur_block_hi_ = 0;
  smc_break_ = false;
}

namespace {

/// True iff class `from` may flow to `to` in `l`. A class at or above the
/// lattice size flows nowhere but to itself.
bool flows(const dift::Lattice& l, Tag from, Tag to) {
  return from == to ||
         (from < l.size() && to < l.size() && l.allowed_flow(from, to));
}

}  // namespace

template <typename W>
void Core<W>::set_policy(const dift::SecurityPolicy* policy) {
  policy_ = policy;
  const dift::ExecutionClearance ec =
      policy ? policy->execution_clearance() : dift::ExecutionClearance{};
  has_fetch_clearance_ = ec.fetch.has_value();
  has_store_prot_ = policy && !policy->store_protection().empty();
  // Each execution clearance becomes a row over the policy's lattice, the
  // one VirtualPrototype::run() makes active, so a check costs the hot path
  // one byte instead of a lookup in the active context's flow table.
  // Translations are policy-independent and stay warm across a re-arm.
  const auto resolve = [&](Clearance& c, std::optional<Tag> clearance) {
    c = Clearance{};
    if (!clearance) return;
    c.tag = *clearance;
    const dift::Lattice& l = policy->lattice();
    c.row.fill(Clearance::kCounted | Clearance::kRefused);
    for (std::size_t t = 0; t < l.size(); ++t)
      if (flows(l, static_cast<Tag>(t), c.tag)) c.row[t] = Clearance::kCounted;
    c.row[c.tag] = 0;  // a class flows to itself, uncounted
  };
  resolve(fetch_, ec.fetch);
  resolve(branch_, ec.branch);
  resolve(mem_addr_, ec.mem_addr);
  // Does every clearance admit ⊥-tagged execution? Fixed here, so it costs
  // the dispatch loop nothing.
  plain_ok_ = ((fetch_.row[dift::kBottomTag] | branch_.row[dift::kBottomTag] |
                mem_addr_.row[dift::kBottomTag]) &
               Clearance::kRefused) == 0;
  if (policy) {
    for (const auto& mc : policy->store_protection())
      plain_ok_ = plain_ok_ && flows(policy->lattice(), dift::kBottomTag, mc.tag);
  }
}

template <typename W>
void Core<W>::reset(std::uint32_t reset_pc, bool keep_translations) {
  regs_.fill(W{});
  csrs_ = CsrFile{};
  pc_ = reset_pc;
  next_pc_ = reset_pc;
  instret_ = 0;
  wfi_ = false;
  fatal_trap_ = false;
  reg_tag_or_ = dift::kBottomTag;
  taint_break_ = false;
  if (keep_translations) {
    cur_block_lo_ = cur_block_hi_ = 0;
    smc_break_ = false;
  } else {
    invalidate_blocks();
  }
}

template <typename W>
void Core<W>::set_irq(std::uint32_t bit, bool level) {
  if (level)
    csrs_.mip |= bit;
  else
    csrs_.mip &= ~bit;
}

template <typename W>
template <typename F>
auto Core<W>::on_bus(std::uint32_t addr, F&& access) {
  if constexpr (!kTainted) {
    return access();
  } else {
    dift::set_pc_hint(pc_);
    try {
      return access();
    } catch (const dift::PolicyViolation& v) {
      if (v.pc() != 0) throw;
      rethrow_with_pc(v, addr);
    }
  }
}

template <typename W>
void Core<W>::rethrow_with_pc(const dift::PolicyViolation& v,
                              std::uint32_t addr) const {
  throw dift::PolicyViolation(v.kind(), v.source(), v.required(), pc_,
                              v.address() ? v.address() : addr, v.where());
}

template <typename W>
template <std::uint32_t SZ>
auto Core<W>::bus_load(std::uint32_t addr) -> MemAccess {
  const tlmlite::RegRead r =
      on_bus(addr, [&] { return bus_->read(addr, SZ); });
  if (!r.ok()) return {0, dift::kBottomTag, true};
  Tag tag = dift::kBottomTag;
  if constexpr (kTainted) {
    if (r.uniform) {
      tag = r.tag();
      ++stats_.load_summary_hits;
    } else {
      tag = r.tag(0);
      for (std::uint32_t i = 1; i < SZ; ++i) tag = dift::lub(tag, r.tag(i));
    }
  }
  return {r.value, tag, false};
}

template <typename W>
auto Core<W>::fetch_parcel(std::uint32_t addr) -> MemAccess {
  if (dmi_covers(addr, 2)) return dmi_load<2, kTainted>(addr - dmi_base_);
  return bus_load<2>(addr);
}

template <typename W>
template <std::uint32_t SZ>
bool Core<W>::store(std::uint32_t addr, std::uint32_t value, Tag tag) {
  if constexpr (kTainted) {
    if (has_store_prot_) {
      if (auto clearance = policy_->store_clearance_at(addr))
        dift::check_flow(tag, *clearance, ViolationKind::kStoreClearance, pc_, addr,
                         "core.store");
    }
  }
  if (dmi_covers(addr, SZ)) {
    const std::uint64_t off = addr - dmi_base_;
    if (code_hit<SZ>(off)) code_write(off, SZ);
    dmi_store<SZ, kTainted>(off, value, tag);
    return false;
  }
  // The block goes on: a peripheral write cannot change code memory before
  // this quantum ends (DMA copies run in the DMA thread, and move the
  // code-write epoch like every RAM writer), and an interrupt it raises
  // at once is caught by the mip & mie test after every memory micro-op.
  const std::optional<Tag> t = kTainted ? std::optional<Tag>(tag) : std::nullopt;
  return on_bus(addr, [&] { return bus_->write(addr, SZ, value, t); }) !=
         tlmlite::Response::kOk;
}

template <typename W>
void Core<W>::take_trap(std::uint32_t cause, std::uint32_t tval) {
  trapped_ = true;
  auto& s = csrs_;
  std::uint32_t m = s.mstatus.value;
  const bool mie = (m & kMstatusMie) != 0;
  m &= ~(kMstatusMie | kMstatusMpie);
  if (mie) m |= kMstatusMpie;
  m |= kMstatusMpp;  // previous privilege: machine
  s.mstatus.value = m;
  s.mepc = {pc_, dift::kBottomTag};
  s.mcause = {cause, dift::kBottomTag};
  s.mtval = {tval, dift::kBottomTag};
  // No trap vector installed: the machine is wedged (pc 0 faults forever).
  // Latch it so the VP can end the run with a defined reason instead of
  // spinning to its simulated-time budget.
  if ((s.mtvec.value & ~3u) == 0) fatal_trap_ = true;
  if constexpr (kTainted)
    check(branch_, s.mtvec.tag, ViolationKind::kBranchClearance, s.mtvec.value,
          "core.trap-vector");
  next_pc_ = s.mtvec.value & ~3u;
}

template <typename W>
void Core<W>::check_interrupts() {
  const std::uint32_t pending = csrs_.mip & csrs_.mie;
  if (pending == 0) return;
  wfi_ = false;
  if (!(csrs_.mstatus.value & kMstatusMie)) return;
  std::uint32_t cause;
  if (pending & kIrqMext) cause = 11;
  else if (pending & kIrqMsoft) cause = 3;
  else cause = 7;
  take_trap(kIrqBit | cause, 0);
  pc_ = next_pc_;
}

template <typename W>
void Core<W>::do_csr(const Insn& d) {
  const auto csrnum = static_cast<std::uint32_t>(d.imm) & 0xfff;
  if (!csrs_.exists(csrnum)) {
    take_trap(kCauseIllegalInsn, d.raw);
    return;
  }
  const bool imm_form =
      d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const std::uint32_t src_v = imm_form ? d.rs1 : rv(d.rs1);
  const Tag src_t = imm_form ? dift::kBottomTag : rt(d.rs1);

  const bool is_write_form = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  // csrrs/csrrc with rs1=x0 (or zimm=0) do not write.
  const bool writes = is_write_form || d.rs1 != 0;

  if (writes && ((csrnum >> 10) & 3) == 3) {  // read-only CSR space
    take_trap(kCauseIllegalInsn, d.raw);
    return;
  }

  const CsrValue old = csrs_.read(csrnum, instret_, instret_,
                                  time_us_ ? time_us_() : 0);
  if (writes) {
    std::uint32_t nv;
    Tag nt;
    if (is_write_form) {
      nv = src_v;
      nt = src_t;
    } else if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
      nv = old.value | src_v;
      nt = combine(old.tag, src_t);
    } else {
      nv = old.value & ~src_v;
      nt = combine(old.tag, src_t);
    }
    csrs_.write(csrnum, {nv, nt});
  }
  wr(d.rd, old.value, old.tag);
  // CSR ops run their full handler in the plain dispatch too, and a CSR
  // may hold a tag.
  if (d.rd != 0) note_reg_tag(old.tag);
}

template <typename W>
void Core<W>::execute(const Insn& d) {
  CoreOps<W>::entry(d.op).fn(*this, d);
}

// ---------------------------------------------------------------------------
// Block translation engine.
// ---------------------------------------------------------------------------

template <typename W>
void Core<W>::build_into(Block& b, std::uint64_t off) {
  b.start_off = off;
  b.chain = nullptr;
  b.chain_off = ~std::uint64_t{0};
  b.ops.clear();
  std::uint64_t cur = off;
  // A full 32-bit parcel must be readable even for a 16-bit instruction
  // (mirroring the old fast-path condition); pcs in the last 2 bytes of the
  // window fall back to the slow path.
  while (b.ops.size() < kMaxBlockOps && cur + 4 <= dmi_size_) {
    std::uint32_t raw;
    std::memcpy(&raw, dmi_data_ + cur, 4);  // host is little-endian
    const Insn insn = decode_any(raw);
    const auto& e = CoreOps<W>::entry(insn.op);
    b.ops.push_back(
        MicroOp{insn, e.th, e.th_fast, static_cast<std::uint32_t>(dmi_base_ + cur)});
    cur += insn.len;
    ++stats_.decode_misses;
    if (e.terminator) break;
  }
  b.byte_len = static_cast<std::uint32_t>(cur - off);
  b.raw.assign(dmi_data_ + off, dmi_data_ + cur);
  // From here on every writer of the block's lines moves the epoch, so the
  // block is current until the epoch moves.
  if (cur > off) {
    const std::uint64_t lo = off >> kCodeLineShift;
    const std::uint64_t hi = ((cur - 1) >> kCodeLineShift) + 1;
    std::memset(code_lines_ + lo, 1, hi - lo);
    code_lo_ = std::min(code_lo_, lo);
    code_hi_ = std::max(code_hi_, hi);
  }
  b.epoch = *code_epoch_;
}

template <typename W>
bool Core<W>::revalidate(Block& b) {
  if (std::memcmp(dmi_data_ + b.start_off, b.raw.data(), b.byte_len) != 0)
    return false;
  b.epoch = *code_epoch_;
  return true;
}

template <typename W>
void Core<W>::code_write(std::uint64_t off, std::uint32_t size) {
  ++*code_epoch_;
  // Forward store into the remainder of the executing block: the dispatch
  // must abandon its stale micro-ops and re-translate.
  if (off < cur_block_hi_ && off + size > cur_block_lo_) smc_break_ = true;
}

template <typename W>
auto Core<W>::lookup_block(std::uint64_t off, bool& fresh) -> Block* {
  const auto slot = static_cast<std::size_t>(off >> 1);
  if (slot >= blocks_.size()) {
    // Lazily size the cache to the DMI window: geometric growth, one slot
    // per halfword at most. Block objects are heap-allocated, so chain
    // pointers survive the resize.
    const auto cap = static_cast<std::size_t>(dmi_size_ / 2);
    std::size_t want = blocks_.empty() ? std::size_t{4096} : blocks_.size();
    while (want <= slot) want *= 2;
    blocks_.resize(std::min(want, cap));
    if (slot >= blocks_.size()) return nullptr;  // beyond the DMI window
  }
  auto& up = blocks_[slot];
  if (!up) {
    up = std::make_unique<Block>();
    build_into(*up, off);
    ++stats_.block_misses;
    fresh = true;
    return up.get();
  }
  Block* b = up.get();
  if (b->epoch == *code_epoch_ || revalidate(*b)) {
    ++stats_.block_hits;
    fresh = false;
    return b;
  }
  build_into(*b, off);  // self-modified: re-translate in place
  ++stats_.block_invalidations;
  fresh = true;
  return b;
}

// ---------------------------------------------------------------------------
// Taint-liveness gate.
// ---------------------------------------------------------------------------

template <typename W>
inline bool Core<W>::plain_state() {
  // Pure function of architectural state (the sticky reg_tag_or_ bit is
  // re-verified against the registers before it can disable the plain
  // path), so warm/cold caches, snapshot forks and replays all make the
  // same per-dispatch variant decision. The register the last rescan found
  // tainted is tested first; only once it is clean do all 32 get rescanned.
  if constexpr (!kTainted) {
    return false;  // the plain core has no variant split
  } else {
    if (trace_) return false;  // careful path owns trace-attached runs
    // A policy whose clearances refuse ⊥ never runs plain: asked first, so
    // its tainted dispatches (which all set the sticky bit) cost no rescan.
    if (!plain_ok_) return false;
    if (!shadow_ || !shadow_->all_bottom()) return false;
    if (reg_tag_or_ != dift::kBottomTag) {
      if (Ops::tag(regs_[reg_tag_hint_]) != dift::kBottomTag) return false;
      if (!rescan_reg_tags()) return false;
    }
    return true;
  }
}

template <typename W>
bool Core<W>::rescan_reg_tags() {
  for (std::uint8_t r = 0; r < 32; ++r) {
    if (Ops::tag(regs_[r]) != dift::kBottomTag) {
      reg_tag_hint_ = r;
      return false;
    }
  }
  reg_tag_or_ = dift::kBottomTag;
  return true;
}

template <typename W>
template <bool PLAIN>
inline std::uint64_t Core<W>::exec_cleared(const Block& b, std::size_t n,
                                           bool fresh) {
  // No per-instruction fetch checks, no trace test: one call into the first
  // micro-op's threaded entry runs the dispatch (see CoreOps::th for the
  // exit rules), and the op it returns says how far it got.
  const auto retire = [&](std::uint64_t k) {
    if (!fresh) stats_.decode_hits += k;
    if constexpr (kTainted) {
      if (has_fetch_clearance_) stats_.fetch_summary_hits += k;
    }
  };
  if (n == 0) return 0;  // a fault callback re-armed at the current instret
  cur_block_lo_ = b.start_off;
  cur_block_hi_ = b.start_off + b.byte_len;
  smc_break_ = false;
  if constexpr (PLAIN) taint_break_ = false;
  trapped_ = false;
  const MicroOp* first = b.ops.data();
  th_first_ = first;
  th_last_ = first + (n - 1);
  const MicroOp* last;
  try {
    last = (PLAIN ? first->fast : first->fn)(*this, *first);
  } catch (...) {
    // Enforcement violation inside a handler: the refused op is the one
    // whose pc its entry published. It was fetched and decoded but did not
    // retire — count it like the per-insn engine.
    const MicroOp* refused = first;
    while (refused != th_last_ && refused->pc != pc_) ++refused;
    instret_ += static_cast<std::uint64_t>(refused - th_first_);
    retire(static_cast<std::uint64_t>(refused - first) + 1);
    cur_block_lo_ = cur_block_hi_ = 0;
    throw;
  }
  pc_ = next_pc_;
  instret_ += static_cast<std::uint64_t>(last - th_first_) + 1;
  const auto done = static_cast<std::uint64_t>(last - first) + 1;
  retire(done);
  cur_block_lo_ = cur_block_hi_ = 0;
  return done;
}

template <typename W>
std::uint64_t Core<W>::exec_checked(const Block& b, std::size_t n, bool fresh) {
  // One fetch-clearance check covering the whole block span: a uniformly
  // tagged span whose tag may flow to the clearance skips the
  // per-instruction checks.
  bool cleared = true;
  if constexpr (kTainted) {
    // Any register write of this dispatch may carry a tag: the gate's
    // sticky bit is set once here (also for exec_careful), not per write.
    reg_tag_or_ = 1;
    if (has_fetch_clearance_) {
      Tag tag = dift::kBottomTag;
      cleared = shadow_ && shadow_->uniform(b.start_off, b.byte_len, &tag) &&
                admits(fetch_, tag);
    }
  }
  if (cleared && !trace_) return exec_cleared<false>(b, n, fresh);
  return exec_careful(b, n, fresh, cleared);
}

template <typename W>
std::uint64_t Core<W>::exec_careful(const Block& b, std::size_t n, bool fresh,
                                    bool cleared) {
  // Trace attached, or the block span is not uniformly cleared for fetch:
  // exact per-instruction checks so violation pcs and monitor-mode records
  // match single-step execution.
  cur_block_lo_ = b.start_off;
  cur_block_hi_ = b.start_off + b.byte_len;
  smc_break_ = false;
  const MicroOp* ops = b.ops.data();
  std::uint64_t done = 0;
  try {
    while (done < n) {
      const MicroOp& op = ops[done];
      if (!fresh) ++stats_.decode_hits;
      if constexpr (kTainted) {
        if (has_fetch_clearance_) {
          if (cleared) {
            ++stats_.fetch_summary_hits;
          } else {
            const std::uint64_t off = std::uint64_t(pc_) - dmi_base_;
            const std::uint64_t blk = off >> dift::ShadowSummary::kBlockShift;
            const bool one_block =
                ((off + op.insn.len - 1) >> dift::ShadowSummary::kBlockShift) == blk;
            Tag tag = dift::kBottomTag;
            const bool uniform =
                shadow_ && one_block && shadow_->uniform(off, op.insn.len, &tag);
            if (!uniform) {
              tag = dmi_tags_[off];
              for (std::uint32_t i = 1; i < op.insn.len; ++i)
                tag = dift::lub(tag, dmi_tags_[off + i]);
            }
            if (!admits(fetch_, tag))
              dift::detail::flow_violation(tag, fetch_.tag,
                                           ViolationKind::kFetchClearance, pc_,
                                           pc_, "core.fetch");
            else if (uniform)
              ++stats_.fetch_summary_hits;
          }
        }
      }
      const auto& e = CoreOps<W>::entry(op.insn.op);
      const std::uint32_t seq = pc_ + op.insn.len;
      next_pc_ = seq;
      trapped_ = false;
      e.fn(*this, op.insn);
      if (trace_) {
        // A trapping instruction never wrote rd; record x0 (0, untainted)
        // instead of the stale pre-trap register contents.
        const std::uint8_t rd = trapped_ ? 0 : op.insn.rd;
        trace_->push({instret_, pc_, op.insn.raw, rd, Ops::value(regs_[rd]),
                      Ops::tag(regs_[rd])});
      }
      pc_ = next_pc_;
      ++instret_;
      ++done;
      if (trapped_) break;
      if (e.cf && pc_ != seq) break;  // taken branch left the block
      if (e.mem && ((csrs_.mip & csrs_.mie) != 0 || smc_break_)) break;
    }
  } catch (...) {
    cur_block_lo_ = cur_block_hi_ = 0;
    throw;
  }
  cur_block_lo_ = cur_block_hi_ = 0;
  return done;
}

template <typename W>
void Core<W>::step_slow() {
  // Slow path (XIP flash etc.): read one parcel over the bus, extend to 32
  // bits when it is an uncompressed instruction.
  next_pc_ = pc_ + 4;
  if constexpr (kTainted) reg_tag_or_ = 1;  // a tainted dispatch, as in exec_checked
  MemAccess f = fetch_parcel(pc_);
  if (!f.fault && (f.value & 3) == 3) {
    const MemAccess hi = fetch_parcel(pc_ + 2);
    if (hi.fault) {
      f.fault = true;
    } else {
      f.value |= hi.value << 16;
      f.tag = Ops::combine(f.tag, hi.tag);
    }
  }
  if (f.fault) {
    take_trap(kCauseInsnAccessFault, pc_);
  } else {
    if constexpr (kTainted)
      check(fetch_, f.tag, ViolationKind::kFetchClearance, pc_, "core.fetch");
    const Insn d = decode_any(f.value);
    next_pc_ = pc_ + d.len;
    trapped_ = false;
    execute(d);
    if (trace_) {
      const std::uint8_t rd = trapped_ ? 0 : d.rd;
      trace_->push({instret_, pc_, d.raw, rd, Ops::value(regs_[rd]),
                    Ops::tag(regs_[rd])});
    }
  }
  pc_ = next_pc_;
  ++instret_;
}

template <typename W>
RunExit Core<W>::run(std::uint64_t max_instructions) {
  std::uint64_t executed = 0;
  Block* prev = nullptr;  // last block that ran to completion (chain source)
  while (executed < max_instructions) {
    // Armed injected fault (arm_fault()): fire once the retirement counter
    // reaches the trigger. This sits at the block-boundary check point the
    // per-instruction hot loop already funnels through, so the test costs
    // one predictable branch per block entry.
    if (fault_armed_ && instret_ >= fault_at_) {
      fault_armed_ = false;
      auto fn = std::move(fault_fn_);
      fault_fn_ = nullptr;
      prev = nullptr;  // the mutation may have redirected control flow
      if (fn) fn(*this);
    }
    // One interrupt-pending test per block entry. Mid-block, mip can only
    // change through a load/store (CLINT et al.), and memory micro-ops end
    // the block when an enabled interrupt became pending — so the trap is
    // taken at the same instruction boundary as with per-insn checking.
    if (csrs_.mip & csrs_.mie) check_interrupts();
    if (wfi_) return RunExit::kWfi;

    if (pc_ & 1) {
      next_pc_ = pc_ + 4;
      take_trap(kCauseInsnMisaligned, pc_);
      pc_ = next_pc_;
      ++instret_;
      ++executed;
      prev = nullptr;
      continue;
    }
    if (dmi_covers(pc_, 4)) {
      const std::uint64_t off = std::uint64_t(pc_) - dmi_base_;
      bool fresh = false;
      Block* b = nullptr;
      if (prev && prev->chain_off == off) {
        // Chained transfer: skip the cache lookup (chain_off matches only
        // while a chain is installed), but trust the micro-ops only while
        // no write may have changed the block's bytes.
        b = prev->chain;
        if (b->epoch == *code_epoch_ || revalidate(*b)) {
          ++stats_.chained_transfers;
        } else {
          build_into(*b, off);
          ++stats_.block_invalidations;
          fresh = true;
        }
      }
      if (!b) {
        b = lookup_block(off, fresh);
        if (b && prev) {
          prev->chain = b;
          prev->chain_off = off;
        }
      }
      if (b) {
        // Pending-fault clamp: never execute past the trigger point. The
        // holding block runs partially and falls back to the loop top where
        // the fault fires at the exact boundary — a graceful single-step-
        // style degradation of that one block, not a cache invalidation.
        std::uint64_t budget = max_instructions - executed;
        if (fault_armed_ && fault_at_ - instret_ < budget)
          budget = fault_at_ - instret_;
        const auto n =
            static_cast<std::size_t>(std::min<std::uint64_t>(b->ops.size(), budget));
        // Taint-liveness gate: while no taint is live anywhere and every
        // clearance admits ⊥, dispatch the zero-tag-work plain variant. The
        // plain dispatch (on the VP, every one without a trace) runs inline;
        // everything else takes the out-of-line checked path.
        const bool plain = plain_state();
        const std::uint64_t done = (kTainted ? plain : !trace_)
                                       ? exec_cleared<kTainted>(*b, n, fresh)
                                       : exec_checked(*b, n, fresh);
        executed += done;
        if constexpr (kTainted) {
          if (plain) {
            ++stats_.plain_variant_hits;
            if (taint_break_) {
              ++stats_.variant_promotions;
              taint_break_ = false;
            }
          } else {
            ++stats_.tainted_variant_hits;
          }
        }
        // The chain is a prediction, not a guarantee — the chain_off match
        // and the epoch test on the next entry keep it honest — so any exit
        // (terminator, taken branch, mem break) may install one.
        prev = b;
        continue;
      }
    }
    step_slow();
    ++executed;
    prev = nullptr;
  }
  return RunExit::kQuantumExhausted;
}

template class Core<PlainWord>;
template class Core<TaintedWord>;

}  // namespace vpdift::rv
