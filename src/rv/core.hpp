// RV32IM machine-mode CPU core, templated on the machine word.
//
// Core<PlainWord> is the original VP's ISS; Core<TaintedWord> is the VP+ with
// the DIFT engine woven in: every register carries a tag, ALU results take
// the LUB of their operand tags, and the three execution-clearance checks of
// the paper (instruction fetch, branch/indirect-jump/trap-vector, memory-
// access address) plus store-clearance protection are enforced. All checks
// compile away completely in the plain instantiation.
//
// Memory is reached through the bus's register-level entry (MMIO registers
// without a payload; see tlmlite/registers.hpp); a DMI (direct memory
// interface) window over the main RAM provides the fast path, exactly like
// riscv-vp. The core is driven in instruction quanta by the VP's CPU thread:
// run(n) executes up to n instructions and returns early on WFI or when the
// simulation must stop.
//
// The hot loop is a basic-block translation cache (see docs/perf.md): code
// in the DMI window is decoded once per straight-line region into micro-ops
// with threaded handler entries, each of which tail-calls the next, and
// per-instruction overheads (interrupt-pending test, fetch-clearance check,
// trace test) are hoisted to block boundaries. Self-modifying code stays
// correct through the memory's code-write tracking: a block whose recorded
// write epoch is current is trusted on entry, any other one is compared
// against the raw instruction bytes first.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dift/context.hpp"
#include "dift/policy.hpp"
#include "dift/shadow.hpp"
#include "dift/stats.hpp"
#include "rv/csr.hpp"
#include "rv/decode.hpp"
#include "rv/trace.hpp"
#include "rv/word.hpp"
#include "tlmlite/bus.hpp"

namespace vpdift::rv {

/// Why Core::run() returned before exhausting its quantum.
enum class RunExit : std::uint8_t {
  kQuantumExhausted,
  kWfi,  ///< core executed WFI and no enabled interrupt is pending
};

template <typename W>
struct CoreOps;  // per-instruction handler tables (defined in core.cpp)

template <typename W>
class Core {
 public:
  using Ops = WordOps<W>;
  static constexpr bool kTainted = Ops::kTainted;

  explicit Core(std::string name = "core0");

  // ---- wiring ----

  /// Bus for data/fetch accesses that miss the DMI window.
  void set_bus(tlmlite::Bus& bus) { bus_ = &bus; }
  /// Direct-memory-interface window over main RAM (`tags` may be null in the
  /// plain build). `written` is the memory's written-page set, one byte per
  /// 2^kWrittenPageShift bytes of the window; every DMI store marks the
  /// pages it writes (soc::Memory::written_pages()). `code_lines` and
  /// `code_epoch` are the memory's code-line set, one byte per
  /// 2^kCodeLineShift bytes, and its code-write epoch
  /// (soc::Memory::code_lines()/code_epoch()): the core marks the lines of
  /// every block it translates and bumps the epoch when a DMI store writes a
  /// marked line; every other writer of the window bumps it too. `shadow`
  /// is the optional block-summary layer over `tags` (see
  /// dift/shadow.hpp); when given, the tainted core's load/fetch paths skip
  /// the per-byte LUB loop on uniform blocks.
  void set_dmi(std::uint8_t* data, dift::Tag* tags, std::uint8_t* written,
               std::uint8_t* code_lines, std::uint64_t* code_epoch,
               std::uint64_t base, std::uint64_t size,
               dift::ShadowSummary* shadow = nullptr);
  /// Page granularity of the written-page set given to set_dmi().
  static constexpr unsigned kWrittenPageShift = 12;
  /// Line granularity of the code-line set given to set_dmi().
  static constexpr unsigned kCodeLineShift = 6;
  /// Installs the security policy (execution clearance + store protection)
  /// and resolves each execution clearance into an admit row over the
  /// policy's lattice, the one VirtualPrototype::run() makes active. Only
  /// meaningful for the tainted instantiation.
  void set_policy(const dift::SecurityPolicy* policy);
  /// Source for the `time` CSR, in microseconds of simulated time.
  void set_time_source(std::function<std::uint64_t()> fn) { time_us_ = std::move(fn); }
  /// Attaches an execution trace ring buffer (nullptr detaches). While
  /// attached, blocks execute on the careful (per-instruction) path so the
  /// trace is bit-identical to single-step execution.
  void set_trace(TraceBuffer* trace) { trace_ = trace; }

  // ---- architectural state ----

  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }
  W reg(std::uint8_t r) const { return regs_[r]; }
  void set_reg(std::uint8_t r, W v) {
    if (r != 0) {
      regs_[r] = v;
      note_reg_tag(Ops::tag(v));
    }
  }
  CsrFile& csrs() { return csrs_; }
  std::uint64_t instret() const { return instret_; }

  /// Raises/clears an interrupt-pending bit (kIrqMsoft/kIrqMtimer/kIrqMext).
  void set_irq(std::uint32_t bit, bool level);
  /// True while the core sleeps in WFI.
  bool in_wfi() const { return wfi_; }
  /// True iff an enabled interrupt is pending (what wakes WFI).
  bool irq_pending() const { return (csrs_.mip & csrs_.mie) != 0; }

  // ---- execution ----

  /// Executes up to `max_instructions`; returns the reason for stopping.
  /// Policy violations (VP+ only) propagate as dift::PolicyViolation.
  RunExit run(std::uint64_t max_instructions);

  /// True once the core trapped with a null trap vector (mtvec == 0): the
  /// machine has no handler and would spin on access faults at pc 0. The VP
  /// polls this after each quantum and halts the run (ExitReason::kTrap)
  /// instead of burning simulated time. Cleared by reset().
  bool fatal_trap() const { return fatal_trap_; }

  /// Fault injection (src/fi): arms a one-shot state-mutation callback that
  /// fires at the first instruction boundary at or after `at_instret`
  /// retired instructions. While armed, the dispatch loop clamps each
  /// block's execution budget to the trigger distance, so a block holding
  /// the trigger point executes partially and stops exactly there — the
  /// cache degrades to a shorter run of the same block instead of being
  /// invalidated (re-entry mid-block translates a fresh block at that pc;
  /// `block_invalidations` is untouched by injection). The callback runs
  /// between instructions with the core architecturally quiescent; tag-plane
  /// mutations must keep the shadow summary coherent themselves. An armed
  /// fault survives reset() (the trigger re-applies against the restarted
  /// retirement counter), which keeps post-watchdog schedules deterministic.
  void arm_fault(std::uint64_t at_instret, std::function<void(Core&)> fn) {
    fault_at_ = at_instret;
    fault_fn_ = std::move(fn);
    fault_armed_ = static_cast<bool>(fault_fn_);
  }
  bool fault_armed() const { return fault_armed_; }
  /// Trigger point of the armed fault (meaningful while fault_armed()).
  std::uint64_t fault_at() const { return fault_at_; }
  /// Drops an armed-but-unfired fault. Snapshot restore calls this so a
  /// forked tail never inherits the parent's pending trigger.
  void disarm_fault() {
    fault_armed_ = false;
    fault_fn_ = nullptr;
  }

  /// Drops every cached block translation (and the current-block bounds),
  /// and unmarks the code lines they covered. Snapshot restore calls it so
  /// a restored world starts with a cold cache; code-write tracking alone
  /// would keep the translations correct.
  void invalidate_blocks();

  /// Architectural reset: clears registers, CSRs, pending interrupts, the
  /// WFI state, the block cache, and the retirement counter; pc moves to
  /// `reset_pc`. Wiring (bus, DMI, policy, trace) is preserved.
  /// `keep_translations` keeps the translated blocks (and their chains)
  /// warm — meant for reloading identical code bytes (campaign re-arm with
  /// an unchanged firmware hash). Translations hold no policy state, and a
  /// reload that changes the bytes moves the code-write epoch, so a block
  /// whose bytes differ is re-translated on its next entry.
  void reset(std::uint32_t reset_pc, bool keep_translations = false);

  /// Checkpoint support: restores the retirement counter and WFI state
  /// (registers/pc/CSRs are restored through their accessors).
  void restore_counters(std::uint64_t instret, bool wfi) {
    instret_ = instret;
    wfi_ = wfi;
  }

  /// Single-step convenience for tests.
  void step() { run(1); }

  /// Cumulative engine counters (block cache, summary fast paths, and the
  /// flow_checks of the core's execution-clearance checks; every other
  /// check counts in the active DiftContext). The VP snapshots these around
  /// run() to report per-run deltas.
  const dift::DiftStats& stats() const { return stats_; }

 private:
  /// Result of a data/fetch memory access.
  struct MemAccess {
    std::uint32_t value;
    dift::Tag tag;
    bool fault;
  };

  friend struct CoreOps<W>;
  /// Handler signature for one decoded instruction: executes the operation,
  /// leaving `next_pc_` at the successor pc (handlers of control-flow ops
  /// overwrite it). execute() and the careful block loop call it through
  /// CoreOps<W>::entry().
  using ExecFn = void (*)(Core&, const Insn&);

  struct MicroOp;
  /// Threaded micro-op entry: sets `pc_`/`next_pc_` from the op, runs its
  /// handler, and enters the next micro-op of the block with a tail call
  /// unless the dispatch must end there (exit rules at CoreOps::th in
  /// core.cpp). Returns the last op the chain ran; exec_cleared() retires
  /// the chain's ops with one add.
  using ThreadFn = const MicroOp* (*)(Core&, const MicroOp&);

  /// One pre-decoded instruction of a translated block.
  ///
  /// Every op carries two threaded entries: `fn` runs the full (tainted)
  /// semantics, `fast` the taint-liveness-specialized plain variant that
  /// skips all tag work — valid only while plain_state() holds (shadow plane
  /// uniformly ⊥, register tags ⊥, every clearance admits ⊥). A chain stays
  /// on the flavour it was entered with. Terminators run their full handler
  /// in both, and the plain instantiation aliases fast == fn. `pc` is the
  /// op's own address.
  struct MicroOp {
    Insn insn;
    ThreadFn fn;
    ThreadFn fast;
    std::uint32_t pc;
  };

  /// One translated basic block: a run of micro-ops ending at the first
  /// unconditional-control-flow/CSR/fence/WFI terminator (or kMaxBlockOps),
  /// stored contiguously so each op's threaded entry finds its successor at
  /// the next slot. Conditional branches stay inside the block — they fall
  /// through to the next micro-op when not taken and exit the block when
  /// taken, which keeps branch-dense inner loops in one block instead of
  /// fragmenting them.
  /// `raw` snapshots the encoded bytes and `epoch` the code-write epoch at
  /// which they last matched memory: entry trusts the block while the
  /// epoch is current and compares `raw` otherwise (revalidate). `chain`
  /// caches the successor block reached last time the block ran. A block
  /// holds no policy or tag state: its fetch clearance is decided afresh on
  /// every dispatch.
  struct Block {
    std::uint64_t start_off = 0;  ///< DMI offset of the block head
    std::uint32_t byte_len = 0;
    std::uint64_t epoch = 0;
    Block* chain = nullptr;
    std::uint64_t chain_off = ~std::uint64_t{0};
    std::vector<MicroOp> ops;
    std::vector<std::uint8_t> raw;
  };

  /// Upper bound on micro-ops per block (straight-line runs longer than this
  /// split into consecutive blocks). Also the deepest a threaded chain
  /// recurses where the compiler emits no tail calls (-O0).
  static constexpr std::size_t kMaxBlockOps = 64;

  void execute(const Insn& d);
  /// Runs the bus access `access` (a load or store at `addr`). The tainted
  /// core publishes its pc as a hint first, so a peripheral's monitor-mode
  /// record names the instruction, and re-throws an enforcement violation
  /// raised without a pc with its pc (and `addr` when it has no address).
  template <typename F>
  auto on_bus(std::uint32_t addr, F&& access);
  [[noreturn, gnu::cold, gnu::noinline]] void rethrow_with_pc(
      const dift::PolicyViolation& v, std::uint32_t addr) const;
  /// Load of SZ (1, 2 or 4) bytes over the bus: an address outside the DMI
  /// window. With tags, a uniform device read is a load_summary_hits hit,
  /// any other one the LUB of its byte lanes.
  template <std::uint32_t SZ>
  MemAccess bus_load(std::uint32_t addr);
  /// One 16-bit instruction parcel of the slow fetch path: DMI window or bus.
  MemAccess fetch_parcel(std::uint32_t addr);
  /// Store of SZ bytes that left the DMI shortcut: the store-protection
  /// check, then the DMI window (a protected store or a code-line write) or
  /// the bus. True iff the bus refused it (an access fault).
  template <std::uint32_t SZ>
  bool store(std::uint32_t addr, std::uint32_t value, dift::Tag tag);

  /// True iff [addr, addr+size) lies inside the DMI window.
  bool dmi_covers(std::uint32_t addr, std::uint32_t size) const {
    return addr >= dmi_base_ && std::uint64_t(addr) - dmi_base_ + size <= dmi_size_;
  }
  /// DMI access of SZ bytes at window offset `off`, shared by
  /// fetch_parcel()/store() and every handler variant. The value moves
  /// word-wide. With TAGS, the load tag comes from the shadow summary first
  /// (a load_summary_hits hit), else from the SZ plane bytes read as one
  /// word: equal bytes are the tag, only differing ones walk the per-byte
  /// LUB, so lub_calls stays exact.
  /// The store marks its page (both pages when it straddles a page end) in
  /// the written-page set, skips the plane write when the summary already
  /// holds `tag` over the run, and otherwise writes the SZ tag bytes as one
  /// unit. Its caller tests code_hit() first, and on a hit calls
  /// code_write().
  template <std::uint32_t SZ, bool TAGS>
  MemAccess dmi_load(std::uint64_t off);
  template <std::uint32_t SZ, bool TAGS>
  void dmi_store(std::uint64_t off, std::uint32_t value, dift::Tag tag);
  /// True iff the code line of the first or the last byte of a SZ-byte
  /// store at window offset `off` is marked.
  template <std::uint32_t SZ>
  bool code_hit(std::uint64_t off) const {
    std::uint8_t code = code_lines_[off >> kCodeLineShift];
    if constexpr (SZ > 1) code |= code_lines_[(off + SZ - 1) >> kCodeLineShift];
    return code != 0;
  }
  /// Cold half of a DMI store that wrote a marked code line: moves the
  /// code-write epoch, and raises `smc_break_` when the store wrote into
  /// the executing block.
  [[gnu::cold, gnu::noinline]] void code_write(std::uint64_t off,
                                                std::uint32_t size);

  void take_trap(std::uint32_t cause, std::uint32_t tval);
  void check_interrupts();
  void do_csr(const Insn& d);

  Block* lookup_block(std::uint64_t off, bool& fresh);
  /// Entry test of a block whose epoch is stale: true iff its bytes still
  /// match memory, and the epoch is then refreshed. A block entered with a
  /// current epoch needs no compare.
  [[gnu::cold, gnu::noinline]] bool revalidate(Block& b);
  void build_into(Block& b, std::uint64_t off);
  /// Runs up to the first `n` micro-ops of a block cleared for fetch as one
  /// threaded chain, without per-instruction checks: PLAIN enters the
  /// `fast` entries (which also leave on `taint_break_`), otherwise the
  /// full `fn` ones. Returns the number of ops retired.
  template <bool PLAIN>
  std::uint64_t exec_cleared(const Block& b, std::size_t n, bool fresh);
  /// Every dispatch that is not plain: the VP+'s tainted dispatch (the
  /// fetch-clearance query over the block span) and the careful path.
  [[gnu::noinline]] std::uint64_t exec_checked(const Block& b, std::size_t n,
                                                bool fresh);
  /// Careful path: per-instruction fetch checks, trace records and
  /// retirement, so violation pcs and monitor-mode records match
  /// single-step execution. `cleared` says the whole span is cleared.
  [[gnu::noinline]] std::uint64_t exec_careful(const Block& b, std::size_t n,
                                                bool fresh, bool cleared);
  void step_slow();

  // Taint-liveness gate (see docs/perf.md).
  bool plain_state();
  /// The gate's 32-register rescan: true iff every register tag is ⊥ (the
  /// sticky bit is then cleared); else remembers the tainted register.
  [[gnu::noinline]] bool rescan_reg_tags();

  /// One execution clearance (fetch, branch or memory address) resolved
  /// against the policy's lattice by set_policy(): `row[t]` is what a check
  /// of class t does. Bit kCounted is `t != tag` of a set clearance, the
  /// check's flow_checks count; bit kRefused says t may not flow to `tag`
  /// (a class at or above the lattice size never may). An unset clearance
  /// is all zero: it admits every class and counts nothing.
  struct Clearance {
    static constexpr std::uint8_t kCounted = 1;
    static constexpr std::uint8_t kRefused = 2;
    std::array<std::uint8_t, 256> row{};
    dift::Tag tag = dift::kBottomTag;
  };
  /// Counted test of class `t` against `c`: adds the check to flow_checks
  /// and says whether the flow is allowed.
  bool admits(const Clearance& c, dift::Tag t) {
    const std::uint8_t r = c.row[t];
    stats_.flow_checks += r & Clearance::kCounted;
    return (r & Clearance::kRefused) == 0;
  }
  /// Execution-clearance check of the instruction at `pc_`: a refused flow
  /// goes to the cold dift::detail::flow_violation, which records it
  /// (monitor mode) or throws.
  void check(const Clearance& c, dift::Tag t, dift::ViolationKind kind,
             std::uint32_t addr, const char* where) {
    if (!admits(c, t)) [[unlikely]]
      dift::detail::flow_violation(t, c.tag, kind, pc_, addr, where);
  }

  dift::Tag combine(dift::Tag a, dift::Tag b) { return Ops::combine(a, b); }
  std::uint32_t rv(std::uint8_t r) const { return Ops::value(regs_[r]); }
  dift::Tag rt(std::uint8_t r) const { return Ops::tag(regs_[r]); }
  /// Register write of a handler. It leaves the gate's sticky bit alone: a
  /// tainted dispatch sets it once (exec_checked, step_slow), and the
  /// plain-dispatch writes that can carry a tag (bus loads, CSR reads) set
  /// it themselves through note_reg_tag().
  void wr(std::uint8_t rd, std::uint32_t v, dift::Tag t) {
    if (rd != 0) regs_[rd] = Ops::make(v, t);
  }
  void note_reg_tag(dift::Tag t) {
    if constexpr (kTainted) reg_tag_or_ = static_cast<dift::Tag>(reg_tag_or_ | t);
  }

  std::string name_;
  std::array<W, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint32_t next_pc_ = 0;
  CsrFile csrs_;
  std::uint64_t instret_ = 0;
  bool wfi_ = false;

  tlmlite::Bus* bus_ = nullptr;
  std::uint8_t* dmi_data_ = nullptr;
  dift::Tag* dmi_tags_ = nullptr;
  std::uint8_t* dmi_written_ = nullptr;
  std::uint8_t* code_lines_ = nullptr;
  std::uint64_t* code_epoch_ = nullptr;
  std::uint64_t dmi_base_ = 0;
  std::uint64_t dmi_size_ = 0;
  dift::ShadowSummary* shadow_ = nullptr;

  dift::DiftStats stats_;
  /// A handler took a trap (no rd write happened). Cleared per instruction
  /// by the careful paths and once per threaded dispatch.
  bool trapped_ = false;
  bool fatal_trap_ = false;  ///< trapped into mtvec == 0 (no handler installed)

  // One-shot injected fault (see arm_fault()).
  bool fault_armed_ = false;
  std::uint64_t fault_at_ = 0;
  std::function<void(Core&)> fault_fn_;

  // Block translation cache over the DMI window, keyed by halfword offset
  // (IALIGN=16 with the C extension) and grown lazily up to one slot per
  // halfword of the window. Block objects live on the heap so chain pointers
  // survive vector growth; invalidated blocks are rebuilt in place.
  std::vector<std::unique_ptr<Block>> blocks_;

  // Marked code lines lie in [code_lo_, code_hi_) (line indices), so
  // invalidate_blocks() unmarks only that range.
  std::uint64_t code_lo_ = ~std::uint64_t{0};
  std::uint64_t code_hi_ = 0;

  // Bounds (DMI offsets) of the block currently executing, so a store into
  // a code line (code_write) can flag forward stores into the remainder of
  // the block; `smc_break_` ends the running dispatch so the block is
  // re-translated at the new pc. Bus (MMIO) stores leave it alone: no
  // peripheral writes code memory synchronously (see Core::store).
  std::uint64_t cur_block_lo_ = 0;
  std::uint64_t cur_block_hi_ = 0;
  bool smc_break_ = false;
  /// Last micro-op the running threaded dispatch may execute (its budget).
  const MicroOp* th_last_ = nullptr;
  /// First micro-op of the running chain not yet counted in `instret_`.
  /// The chain retires its ops at exit; the CSR entry, the one handler
  /// that reads `instret_`, counts the ops before it first.
  const MicroOp* th_first_ = nullptr;

  // Taint-liveness gate state. `reg_tag_or_` is a sticky bit: 0 proves all
  // register tags are ⊥. Every tainted dispatch sets it once on entry
  // (exec_checked, step_slow), since any of its register writes may carry a
  // tag; outside one, set_reg() and the plain-dispatch writes that can bring
  // in a tag (bus loads, CSR reads) OR that tag in. Non-zero is re-verified
  // (and cleared) by a 32-register rescan at the next gate evaluation, so
  // the gate stays a pure function of architectural state.
  // `reg_tag_hint_` is the register the last rescan found tainted; while it
  // still is, the gate answers without a rescan.
  // `taint_break_` is raised by a plain-variant handler whose result
  // introduced taint (tagged MMIO read / DMA side effect): the plain
  // dispatch ends before the next op so everything downstream runs with
  // full tag semantics. `plain_ok_` answers "every execution
  // clearance row and store protection admits ⊥-tagged execution";
  // set_policy() fixes it.
  dift::Tag reg_tag_or_ = dift::kBottomTag;
  std::uint8_t reg_tag_hint_ = 0;
  bool taint_break_ = false;
  bool plain_ok_ = true;

  const dift::SecurityPolicy* policy_ = nullptr;
  bool has_fetch_clearance_ = false;
  bool has_store_prot_ = false;

  std::function<std::uint64_t()> time_us_;
  TraceBuffer* trace_ = nullptr;

  // The execution clearances' admit rows (set_policy()), last so that they
  // leave the layout of the fields above alone.
  Clearance fetch_;
  Clearance branch_;
  Clearance mem_addr_;
};

extern template class Core<PlainWord>;
extern template class Core<TaintedWord>;

}  // namespace vpdift::rv
