#include "sa/analyze.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "soc/addrmap.hpp"
#include "soc/aes_periph.hpp"
#include "soc/can.hpp"
#include "soc/dma.hpp"
#include "soc/gpio.hpp"
#include "soc/sensor.hpp"
#include "soc/uart.hpp"

namespace vpdift::sa {

using dift::kBottomTag;
using dift::Tag;
using rv::Insn;
using rv::Op;

InsnClass classify(const rv::Insn& insn) {
  if (rv::is_block_terminator(insn.op)) return InsnClass::kTerminator;
  switch (insn.op) {
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
      return InsnClass::kBranch;
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      return InsnClass::kLoad;
    case Op::kSb: case Op::kSh: case Op::kSw:
      return InsnClass::kStore;
    default:
      return InsnClass::kCompute;
  }
}

namespace {

namespace am = soc::addrmap;

constexpr std::uint32_t kU32Max = 0xffffffffu;
/// Accesses wider than this are treated as unbounded (poison on taint).
constexpr std::uint64_t kWideAccess = 4096;
/// Joins into the per-pc overflow state before widening kicks in.
constexpr int kWidenAfter = 4;
/// A capped-out state merges into an existing slot when at most this many
/// registers would widen (outer-loop counters, spilled temporaries).
constexpr int kMergeCostMax = 8;
/// In-place merges a slot absorbs before its growing bounds widen.
constexpr int kSlotWidenJoins = 64;

// ---- interval arithmetic -------------------------------------------------

Interval ijoin(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

bool isubset(Interval a, Interval b) { return a.lo >= b.lo && a.hi <= b.hi; }

/// [a] + [b] with consistent wrap-around: exact when both bounds land in the
/// same 2^32 window, top otherwise.
Interval iadd(Interval a, Interval b) {
  if (a.is_top() || b.is_top()) return Interval::top();
  const std::uint64_t lo = std::uint64_t(a.lo) + b.lo;
  const std::uint64_t hi = std::uint64_t(a.hi) + b.hi;
  if ((lo >> 32) != (hi >> 32)) return Interval::top();
  return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

Interval iadd_const(Interval a, std::int32_t k) {
  if (a.is_top()) return Interval::top();
  const std::int64_t lo = std::int64_t(a.lo) + k;
  const std::int64_t hi = std::int64_t(a.hi) + k;
  if (lo >= 0 && hi <= std::int64_t(kU32Max))
    return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
  if (lo < 0 && hi < 0)  // consistent borrow: wrap both
    return {static_cast<std::uint32_t>(lo + (1ll << 32)),
            static_cast<std::uint32_t>(hi + (1ll << 32))};
  return Interval::top();
}

Interval isub(Interval a, Interval b) {
  if (a.is_top() || b.is_top()) return Interval::top();
  const std::int64_t lo = std::int64_t(a.lo) - b.hi;
  const std::int64_t hi = std::int64_t(a.hi) - b.lo;
  if (lo >= 0 && hi <= std::int64_t(kU32Max))
    return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
  if (lo < 0 && hi < 0)
    return {static_cast<std::uint32_t>(lo + (1ll << 32)),
            static_cast<std::uint32_t>(hi + (1ll << 32))};
  return Interval::top();
}

struct AbsVal {
  Interval iv = Interval::top();
  Tag t = kBottomTag;
};

struct RegState {
  std::array<AbsVal, 32> r{};
  AbsVal& operator[](std::size_t i) { return r[i]; }
  const AbsVal& operator[](std::size_t i) const { return r[i]; }
};

/// Byte span touched by one access (inclusive bounds); `wide` subsumes top
/// and cross-space spans — the analyzer stops tracking it precisely.
struct Span {
  std::uint64_t lo = 0, hi = 0;
  bool wide = false;
};

Span span_of(Interval addr, std::uint32_t size) {
  if (addr.is_top()) return {0, 0, true};
  const std::uint64_t lo = addr.lo;
  const std::uint64_t hi = std::uint64_t(addr.hi) + size - 1;
  if (hi < lo || hi - lo > kWideAccess) return {0, 0, true};
  return {lo, hi, false};
}

bool overlaps(const Span& s, std::uint64_t base, std::uint64_t size) {
  return !s.wide && size != 0 && s.lo < base + size && s.hi >= base;
}

enum class AccKind : std::uint8_t { kNone, kRam, kMmio, kWide };

class Analyzer {
 public:
  Analyzer(const rvasm::Program& prog, const dift::SecurityPolicy* policy,
           const AnalyzeOptions& opts)
      : prog_(prog), pol_(policy), opts_(opts) {}

  AnalysisResult run();

 private:
  // ---- image -------------------------------------------------------------
  std::uint32_t fetch_u32(std::uint64_t off) const {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
      v = (v << 8) |
          (off + i < image_.size() ? image_[static_cast<std::size_t>(off) + i] : 0);
    return v;
  }
  Insn decode_at(std::uint32_t pc) const {
    return rv::decode_any(fetch_u32(pc - base_));
  }
  bool in_ram(std::uint64_t a) const { return a >= base_ && a - base_ < ram_size_; }

  // ---- lattice helpers ---------------------------------------------------
  Tag lub(Tag a, Tag b) const {
    if (a == b || b == kBottomTag) return a;
    if (a == kBottomTag) return b;
    return lat_ ? lat_->lub(a, b) : kBottomTag;
  }
  bool flows(Tag from, Tag to) {
    checked_.insert({from, to});
    if (!lat_ || from == to) return true;
    return lat_->allowed_flow(from, to);
  }
  bool taint_le(Tag a, Tag b) const { return lub(a, b) == b; }

  // ---- state plumbing ----------------------------------------------------
  struct Slot {
    RegState st;
    int joins = 0;  ///< in-place merges absorbed; widen past kSlotWidenJoins
  };
  struct PcInfo {
    std::vector<Slot> states;
    std::optional<RegState> over;  ///< widened join of everything past the cap
    int over_joins = 0;
    std::set<int> funcs;  ///< structural containing-function ids
    // Cumulative access facts (SMC/lint, judged at end).
    AccKind acc = AccKind::kNone;
    std::uint64_t acc_lo = 0, acc_hi = 0;
    bool is_store = false;
    bool taint_touch = false;   ///< non-bottom data observed at this insn
  };

  void enqueue(std::uint32_t pc, int idx) {
    if (in_wl_.insert({pc, idx}).second) wl_.push_back({pc, idx});
  }
  void requeue_all(std::uint32_t pc) {
    auto& pi = pcs_[pc];
    for (int i = 0; i < static_cast<int>(pi.states.size()); ++i) enqueue(pc, i);
    if (pi.over) enqueue(pc, -1);
  }

  bool state_le(const RegState& a, const RegState& b) const {
    for (int i = 1; i < 32; ++i)
      if (!isubset(a[i].iv, b[i].iv) || !taint_le(a[i].t, b[i].t)) return false;
    return true;
  }
  RegState state_join(const RegState& a, const RegState& b) const {
    RegState j;
    for (int i = 1; i < 32; ++i)
      j[i] = {ijoin(a[i].iv, b[i].iv), lub(a[i].t, b[i].t)};
    j[0] = {Interval::exact(0), kBottomTag};
    return j;
  }

  /// Delivers `s` to `pc`, merging `funcs` into its membership. Bounded
  /// disjunction: distinct states up to the cap; past the cap the incoming
  /// state merges into the *closest* existing slot (fewest registers would
  /// widen) so that e.g. outer-loop counters don't smear inner-loop pointer
  /// precision; states unlike any slot fall into one widened overflow join.
  void deliver(std::uint32_t pc, RegState s, const std::set<int>& funcs) {
    if (!in_ram(pc)) return;  // control flow left RAM: runtime fetch fault
    s[0] = {Interval::exact(0), kBottomTag};
    auto& pi = pcs_[pc];
    bool funcs_grew = false;
    for (int f : funcs) funcs_grew |= pi.funcs.insert(f).second;
    if (funcs_grew) requeue_all(pc);  // return edges depend on membership
    for (const auto& ex : pi.states)
      if (state_le(s, ex.st)) return;
    if (pi.over && state_le(s, *pi.over)) return;
    if (pi.states.size() < opts_.max_states_per_pc) {
      pi.states.push_back({std::move(s), 0});
      enqueue(pc, static_cast<int>(pi.states.size()) - 1);
      return;
    }
    int best = -1, best_cost = 32;
    for (int i = 0; i < static_cast<int>(pi.states.size()); ++i) {
      int cost = 0;
      const RegState& ex = pi.states[static_cast<std::size_t>(i)].st;
      for (int r = 1; r < 32 && cost < best_cost; ++r)
        if (!isubset(s[r].iv, ex[r].iv) || !taint_le(s[r].t, ex[r].t)) ++cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best_cost <= kMergeCostMax) {
      Slot& sl = pi.states[static_cast<std::size_t>(best)];
      RegState j = state_join(sl.st, s);
      if (++sl.joins > kSlotWidenJoins) {
        for (int i = 1; i < 32; ++i) {  // widen bounds that keep growing
          if (j[i].iv.lo < sl.st[i].iv.lo) j[i].iv.lo = 0;
          if (j[i].iv.hi > sl.st[i].iv.hi) j[i].iv.hi = kU32Max;
        }
      }
      if (!state_le(j, sl.st)) {
        sl.st = std::move(j);
        enqueue(pc, best);
      }
      return;
    }
    RegState joined = pi.over ? state_join(*pi.over, s) : std::move(s);
    if (pi.over && ++pi.over_joins > kWidenAfter) {
      for (int i = 1; i < 32; ++i) {  // widen bounds that are still growing
        if (joined[i].iv.lo < (*pi.over)[i].iv.lo) joined[i].iv.lo = 0;
        if (joined[i].iv.hi > (*pi.over)[i].iv.hi) joined[i].iv.hi = kU32Max;
      }
    }
    if (!pi.over || !state_le(joined, *pi.over)) {
      pi.over = std::move(joined);
      enqueue(pc, -1);
    }
  }

  // ---- findings ----------------------------------------------------------
  void finding(const std::string& kind, const std::string& where,
               std::uint64_t pc, std::string detail, bool reachable) {
    const std::string key =
        kind + "|" + where + "|" + std::to_string(pc);
    if (!keys_.insert(key).second) return;
    findings_.push_back({kind, where, pc, std::move(detail), reachable});
  }
  void violation(const std::string& where, std::uint32_t pc, Tag from, Tag to,
                 const char* what) {
    finding("reachable-violation", where, pc,
            std::string(what) + ": class '" + name_of(from) +
                "' may not flow to clearance '" + name_of(to) + "'",
            true);
  }
  std::string name_of(Tag t) const {
    return lat_ ? lat_->name_of(t) : std::string("bottom");
  }

  // ---- memory / MMIO model -----------------------------------------------
  void grow_tag(Tag& slot, Tag t) {
    const Tag n = lub(slot, t);
    if (n != slot) {
      slot = n;
      mem_dirty_ = true;
    }
  }
  void poison() {
    if (poisoned_) return;
    poisoned_ = true;
    mem_dirty_ = true;
  }
  /// May-taint of RAM bytes [lo, hi] against the *current* map.
  Tag ram_taint(std::uint64_t lo, std::uint64_t hi) const {
    if (poisoned_) return program_ub_;
    Tag t = kBottomTag;
    const std::uint64_t ext = image_.size();
    for (std::uint64_t a = std::max(lo, base_) - base_;
         a <= hi - base_ && a < ext; ++a)
      t = lub(t, mem_taint_[static_cast<std::size_t>(a)]);
    if (hi - base_ >= ext) t = lub(t, beyond_tag_);
    return t;
  }
  void ram_taint_store(std::uint64_t lo, std::uint64_t hi, Tag t) {
    if (t == kBottomTag) return;
    const std::uint64_t ext = image_.size();
    for (std::uint64_t a = std::max(lo, base_) - base_;
         a <= hi - base_ && a < ext; ++a) {
      auto& cell = mem_taint_[static_cast<std::size_t>(a)];
      const Tag n = lub(cell, t);
      if (n != cell) {
        cell = n;
        mem_dirty_ = true;
      }
    }
    if (hi - base_ >= ext) grow_tag(beyond_tag_, t);
  }

  Tag mmio_read_taint(const Span& s) {
    Tag t = kBottomTag;
    auto input = [&](const char* dev) {
      return pol_ ? pol_->input_class(dev) : kBottomTag;
    };
    if (overlaps(s, am::kUartBase + soc::Uart::kRxData, 4))
      t = lub(t, input("uart0.rx"));
    if (overlaps(s, am::kCanBase + soc::CanPeriph::kRxData, 8))
      t = lub(t, input("can0.rx"));
    if (overlaps(s, am::kSensorBase, soc::Sensor::kFrameSize))
      t = lub(t, input("sensor0"));
    if (overlaps(s, am::kGpioBase + soc::Gpio::kIn, 4))
      t = lub(t, input("gpio0.in"));
    if (overlaps(s, am::kAesBase + soc::AesPeriph::kOutput, 16)) {
      aes_output_read_ = true;
      const auto declass = pol_ ? pol_->declass_output("aes0") : std::nullopt;
      t = lub(t, declass ? *declass : aes_ub_);
    }
    if (overlaps(s, am::kCanBase + soc::CanPeriph::kTxData, 8)) t = lub(t, can_tx_ub_);
    return t;
  }

  void mmio_store(const Span& s, Tag data, std::uint32_t pc) {
    if (overlaps(s, am::kUartBase + soc::Uart::kTxData, 4)) {
      uart_tx_stored_ = true;
      if (pol_)
        if (auto c = pol_->output_clearance("uart0.tx"); c && !flows(data, *c))
          violation("uart0.tx", pc, data, *c, "UART transmit");
    }
    if (overlaps(s, am::kCanBase + soc::CanPeriph::kTxData, 8)) {
      can_tx_stored_ = true;
      grow_tag(can_tx_ub_, data);
      if (pol_)
        if (auto c = pol_->output_clearance("can0.tx"); c && !flows(data, *c))
          violation("can0.tx", pc, data, *c, "CAN transmit");
    }
    if (overlaps(s, am::kGpioBase + soc::Gpio::kOut, 4)) {
      gpio_out_stored_ = true;
      if (pol_)
        if (auto c = pol_->output_clearance("gpio0.out"); c && !flows(data, *c))
          violation("gpio0.out", pc, data, *c, "GPIO output");
    }
    if (overlaps(s, am::kAesBase + soc::AesPeriph::kKey, 16)) {
      aes_key_stored_ = true;
      grow_tag(aes_ub_, data);
      if (pol_)
        if (auto c = pol_->unit_clearance("aes0"); c && !flows(data, *c))
          violation("aes0.engine", pc, data, *c, "AES key load");
    }
    if (overlaps(s, am::kAesBase + soc::AesPeriph::kInput, 16))
      grow_tag(aes_ub_, data);
    if (overlaps(s, am::kDmaBase + soc::Dma::kCtrl, 4)) {
      // The DMA copies RAM->RAM with tags the analyzer does not track
      // per-transfer; everything it could have read may now be anywhere.
      if (program_ub_ != kBottomTag) poison();
    }
  }

  // ---- transfer function --------------------------------------------------
  void exec_mem_addr_check(Tag addr_taint, std::uint32_t pc) {
    if (!pol_) return;
    if (auto c = pol_->execution_clearance().mem_addr;
        c && !flows(addr_taint, *c))
      violation("core.lsu", pc, addr_taint, *c, "memory-access address");
  }
  void branch_check(Tag t, std::uint32_t pc, const char* where) {
    if (!pol_) return;
    if (auto c = pol_->execution_clearance().branch; c && !flows(t, *c))
      violation(where, pc, t, *c, "control-flow condition/target");
  }

  void record_access(PcInfo& pi, const Span& s, bool store) {
    AccKind k;
    if (s.wide)
      k = AccKind::kWide;
    else if (in_ram(s.lo) && in_ram(s.hi))
      k = AccKind::kRam;
    else if (!in_ram(s.lo) && !in_ram(s.hi) && s.hi < base_)
      k = AccKind::kMmio;
    else
      k = AccKind::kWide;
    if (pi.acc == AccKind::kNone) {
      pi.acc = k;
      pi.acc_lo = s.lo;
      pi.acc_hi = s.hi;
    } else if (pi.acc == k && k != AccKind::kWide) {
      pi.acc_lo = std::min(pi.acc_lo, s.lo);
      pi.acc_hi = std::max(pi.acc_hi, s.hi);
    } else if (pi.acc != k) {
      pi.acc = AccKind::kWide;
    }
    if (store) pi.is_store = true;
  }

  void register_function(std::uint32_t entry) {
    if (func_id_.count(entry)) return;
    const int id = static_cast<int>(func_entry_.size());
    func_id_[entry] = id;
    func_entry_.push_back(entry);
  }

  void register_trap_entry(std::uint32_t pc) {
    if (!trap_entries_.insert(pc).second) return;
    register_function(pc);
    leaders_.insert(pc);
    RegState s;  // everything unknown, tainted up to the program's source lub
    for (int i = 1; i < 32; ++i) s[i] = {Interval::top(), program_ub_};
    deliver(pc, s, {func_id_[pc]});
  }

  /// Handles a call edge: flows `s` (rd already set) into the callee and
  /// records the continuation so returns can feed it.
  void call_edge(std::uint32_t target, std::uint32_t cont, RegState s,
                 const std::set<int>& caller_funcs) {
    register_function(target);
    leaders_.insert(target);
    leaders_.insert(cont);
    const int fid = func_id_[target];
    if (continuations_[fid].insert(cont).second) {
      // A fresh continuation: already-seen returns of the callee must
      // re-deliver their states.
      for (std::uint32_t ret : returns_of_[fid]) requeue_all(ret);
    }
    // The continuation belongs to the caller's function(s), not the callee's.
    auto& ci = pcs_[cont];
    bool grew = false;
    for (int f : caller_funcs) grew |= ci.funcs.insert(f).second;
    if (grew) requeue_all(cont);
    deliver(target, std::move(s), {fid});
  }

  void process(std::uint32_t pc, const RegState& in);

  // ---- final passes -------------------------------------------------------
  AnalysisResult finish();

  // ---- members ------------------------------------------------------------
  const rvasm::Program& prog_;
  const dift::SecurityPolicy* pol_;
  const AnalyzeOptions opts_;
  const dift::Lattice* lat_ = nullptr;

  std::uint64_t base_ = am::kRamBase;
  std::uint64_t ram_size_ = 4u << 20;
  std::vector<std::uint8_t> image_;
  std::vector<Tag> mem_taint_;
  Tag beyond_tag_ = kBottomTag;  ///< RAM beyond the image extent (incl. stack)
  Tag aes_ub_ = kBottomTag;      ///< lub of data stored to the AES ports
  Tag can_tx_ub_ = kBottomTag;   ///< lub of data stored to the CAN TX buffer
  Tag csr_ub_ = kBottomTag;      ///< lub of data written to any CSR
  Tag program_ub_ = kBottomTag;  ///< lub of every taint source the policy adds
  bool poisoned_ = false;
  bool mem_dirty_ = false;

  std::map<std::uint32_t, PcInfo> pcs_;
  std::deque<std::pair<std::uint32_t, int>> wl_;
  std::set<std::pair<std::uint32_t, int>> in_wl_;
  std::set<std::uint32_t> taint_dep_pcs_;  ///< loads/CSR reads: re-run on map growth

  std::set<std::uint32_t> leaders_;
  std::map<std::uint32_t, int> func_id_;
  std::vector<std::uint32_t> func_entry_;
  std::map<int, std::set<std::uint32_t>> continuations_;
  std::map<int, std::set<std::uint32_t>> returns_of_;
  std::set<std::uint32_t> trap_entries_;
  std::set<std::uint32_t> unresolved_;

  bool mtvec_unknown_ = false;
  bool budget_out_ = false;
  bool image_bad_ = false;
  bool uart_tx_stored_ = false, can_tx_stored_ = false,
       gpio_out_stored_ = false, aes_key_stored_ = false,
       aes_output_read_ = false;
  std::size_t steps_ = 0;

  std::vector<Finding> findings_;
  std::set<std::string> keys_;
  std::set<std::pair<Tag, Tag>> checked_;  ///< (from, to) at evaluated checks
};

void Analyzer::process(std::uint32_t pc, const RegState& in) {
  ++steps_;
  const Insn insn = decode_at(pc);
  const std::uint32_t next = pc + insn.len;
  auto& pi = pcs_[pc];
  const std::set<int> funcs = pi.funcs;  // copy: deliver() may mutate pcs_

  auto val = [&](int r) { return in[static_cast<std::size_t>(r)]; };
  auto fall = [&](RegState s) { deliver(next, std::move(s), funcs); };

  switch (classify(insn)) {
    case InsnClass::kCompute: {
      RegState out = in;
      AbsVal d;
      const AbsVal a = val(insn.rs1), b = val(insn.rs2);
      switch (insn.op) {
        case Op::kLui: d = {Interval::exact(static_cast<std::uint32_t>(insn.imm)), kBottomTag}; break;
        case Op::kAuipc:
          d = {Interval::exact(pc + static_cast<std::uint32_t>(insn.imm)), kBottomTag};
          break;
        case Op::kAddi: d = {iadd_const(a.iv, insn.imm), a.t}; break;
        case Op::kAdd: d = {iadd(a.iv, b.iv), lub(a.t, b.t)}; break;
        case Op::kSub: d = {isub(a.iv, b.iv), lub(a.t, b.t)}; break;
        case Op::kAndi:
          if (a.iv.singleton())
            d = {Interval::exact(a.iv.lo & static_cast<std::uint32_t>(insn.imm)), a.t};
          else if (insn.imm >= 0)
            d = {{0, static_cast<std::uint32_t>(insn.imm)}, a.t};
          else
            d = {Interval::top(), a.t};
          break;
        case Op::kOri:
          d = {a.iv.singleton()
                   ? Interval::exact(a.iv.lo | static_cast<std::uint32_t>(insn.imm))
                   : Interval::top(),
               a.t};
          break;
        case Op::kXori:
          d = {a.iv.singleton()
                   ? Interval::exact(a.iv.lo ^ static_cast<std::uint32_t>(insn.imm))
                   : Interval::top(),
               a.t};
          break;
        case Op::kSlli: {
          const auto sh = static_cast<std::uint32_t>(insn.imm) & 31;
          if (a.iv.hi <= (kU32Max >> sh))
            d = {{a.iv.lo << sh, a.iv.hi << sh}, a.t};
          else
            d = {Interval::top(), a.t};
          break;
        }
        case Op::kSrli: {
          const auto sh = static_cast<std::uint32_t>(insn.imm) & 31;
          d = {{a.iv.lo >> sh, a.iv.hi >> sh}, a.t};
          break;
        }
        case Op::kSrai:
          d = {a.iv.singleton()
                   ? Interval::exact(static_cast<std::uint32_t>(
                         static_cast<std::int32_t>(a.iv.lo) >>
                         (static_cast<std::uint32_t>(insn.imm) & 31)))
                   : Interval::top(),
               a.t};
          break;
        case Op::kSlti: case Op::kSltiu:
          d = {{0, 1}, a.t};
          break;
        case Op::kSlt: case Op::kSltu:
          d = {{0, 1}, lub(a.t, b.t)};
          break;
        case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kSll:
        case Op::kSrl: case Op::kSra: case Op::kMul: case Op::kMulh:
        case Op::kMulhsu: case Op::kMulhu: case Op::kDiv: case Op::kDivu:
        case Op::kRem: case Op::kRemu:
          d = {Interval::top(), lub(a.t, b.t)};
          break;
        default:
          d = {Interval::top(), kBottomTag};
          break;
      }
      if (insn.rd != 0) out[insn.rd] = d;
      fall(std::move(out));
      return;
    }

    case InsnClass::kBranch: {
      const AbsVal a = val(insn.rs1), b = val(insn.rs2);
      const std::uint32_t target = pc + static_cast<std::uint32_t>(insn.imm);
      leaders_.insert(target);
      leaders_.insert(next);
      branch_check(lub(a.t, b.t), pc, "core.branch");
      if (lub(a.t, b.t) != kBottomTag) pi.taint_touch = true;

      // Refinement on equality / unsigned-order guards. An empty refined
      // interval means the edge is infeasible for this state — skip it.
      auto taken = in, not_taken = in;
      bool taken_ok = true, fall_ok = true;
      auto refine = [&](RegState& s, int r, Interval iv) {
        const Interval cur = s[static_cast<std::size_t>(r)].iv;
        const Interval meet{std::max(cur.lo, iv.lo), std::min(cur.hi, iv.hi)};
        if (meet.lo > meet.hi) return false;
        if (r != 0) s[static_cast<std::size_t>(r)].iv = meet;
        return true;
      };
      switch (insn.op) {
        case Op::kBeq:
          // Can't refine inequality on intervals, so fall-through keeps `in`.
          taken_ok = refine(taken, insn.rs1, b.iv) && refine(taken, insn.rs2, a.iv);
          break;
        case Op::kBne:
          fall_ok = refine(not_taken, insn.rs1, b.iv) &&
                    refine(not_taken, insn.rs2, a.iv);
          if (b.iv.singleton() && a.iv.singleton() && a.iv.lo == b.iv.lo)
            taken_ok = false;
          break;
        case Op::kBltu:
          if (b.iv.lo > 0) taken_ok = refine(taken, insn.rs1, {0, b.iv.hi - (b.iv.hi > 0 ? 1 : 0)});
          if (b.iv.hi == 0) taken_ok = false;  // nothing is < 0 unsigned
          fall_ok = refine(not_taken, insn.rs1, {b.iv.lo, kU32Max});
          break;
        case Op::kBgeu:
          taken_ok = refine(taken, insn.rs1, {b.iv.lo, kU32Max});
          if (b.iv.hi > 0)
            fall_ok = refine(not_taken, insn.rs1, {0, b.iv.hi - 1});
          else
            fall_ok = false;  // rs1 < 0 unsigned: infeasible
          break;
        default:  // blt/bge: signed, no refinement
          break;
      }
      if (taken_ok) deliver(target, std::move(taken), funcs);
      if (fall_ok) fall(std::move(not_taken));
      return;
    }

    case InsnClass::kLoad: {
      const AbsVal a = val(insn.rs1);
      exec_mem_addr_check(a.t, pc);
      const std::uint32_t size =
          insn.op == Op::kLw ? 4 : (insn.op == Op::kLh || insn.op == Op::kLhu) ? 2 : 1;
      const Span s = span_of(iadd_const(a.iv, insn.imm), size);
      record_access(pi, s, /*store=*/false);
      taint_dep_pcs_.insert(pc);
      Tag t;
      if (s.wide)
        t = program_ub_;
      else if (in_ram(s.lo) && in_ram(s.hi))
        t = ram_taint(s.lo, s.hi);
      else if (s.hi < base_)
        t = mmio_read_taint(s);
      else
        t = program_ub_;  // spans RAM and MMIO
      if (t != kBottomTag) pi.taint_touch = true;
      Interval v = Interval::top();
      if (insn.op == Op::kLbu) v = {0, 0xff};
      if (insn.op == Op::kLhu) v = {0, 0xffff};
      RegState out = in;
      if (insn.rd != 0) out[insn.rd] = {v, t};
      fall(std::move(out));
      return;
    }

    case InsnClass::kStore: {
      const AbsVal a = val(insn.rs1), data = val(insn.rs2);
      exec_mem_addr_check(a.t, pc);
      const std::uint32_t size =
          insn.op == Op::kSw ? 4 : insn.op == Op::kSh ? 2 : 1;
      const Span s = span_of(iadd_const(a.iv, insn.imm), size);
      record_access(pi, s, /*store=*/true);
      if (data.t != kBottomTag) pi.taint_touch = true;
      if (s.wide) {
        if (data.t != kBottomTag) {
          poison();
          grow_tag(aes_ub_, data.t);
          grow_tag(can_tx_ub_, data.t);
          finding("imprecise-store", "core.lsu", pc,
                  "store through an unbounded pointer with classified data; "
                  "the memory taint map is saturated",
                  false);
        }
      } else if (in_ram(s.lo) && in_ram(s.hi)) {
        ram_taint_store(s.lo, s.hi, data.t);
        if (pol_)
          for (const auto& p : pol_->store_protection())
            if (overlaps(s, p.base, p.size) && !flows(data.t, p.tag))
              violation("store-protection", pc, data.t, p.tag,
                        "store into an integrity-protected region");
      } else if (s.hi < base_) {
        mmio_store(s, data.t, pc);
      } else if (data.t != kBottomTag) {
        poison();
      }
      fall(in);
      return;
    }

    case InsnClass::kTerminator:
      break;  // handled below
  }

  // ---- terminators ---------------------------------------------------------
  switch (insn.op) {
    case Op::kJal: {
      const std::uint32_t target = pc + static_cast<std::uint32_t>(insn.imm);
      RegState out = in;
      if (insn.rd != 0) {
        out[insn.rd] = {Interval::exact(next), kBottomTag};
        call_edge(target, next, std::move(out), funcs);
      } else {
        leaders_.insert(target);
        deliver(target, std::move(out), funcs);
      }
      return;
    }
    case Op::kJalr: {
      const AbsVal a = val(insn.rs1);
      branch_check(a.t, pc, "core.jalr");
      if (a.t != kBottomTag) pi.taint_touch = true;
      RegState out = in;
      if (insn.rd != 0) out[insn.rd] = {Interval::exact(next), kBottomTag};
      if (insn.rd == 0 && insn.rs1 == 1 && insn.imm == 0 && !funcs.empty()) {
        // Structural return: feed every recorded continuation of each
        // containing function (context-insensitive may-edges).
        for (int f : funcs) {
          returns_of_[f].insert(pc);
          for (std::uint32_t cont : continuations_[f])
            deliver(cont, out, {});
        }
        return;
      }
      if (a.iv.singleton()) {
        const std::uint32_t target =
            (a.iv.lo + static_cast<std::uint32_t>(insn.imm)) & ~1u;
        if (insn.rd != 0)
          call_edge(target, next, std::move(out), funcs);
        else {
          leaders_.insert(target);
          deliver(target, std::move(out), funcs);
        }
        return;
      }
      unresolved_.insert(pc);
      return;
    }
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
      const bool imm_form = insn.op == Op::kCsrrwi || insn.op == Op::kCsrrsi ||
                            insn.op == Op::kCsrrci;
      const AbsVal src = imm_form
                             ? AbsVal{Interval::exact(insn.rs1), kBottomTag}
                             : val(insn.rs1);
      const bool writes = insn.op == Op::kCsrrw || insn.op == Op::kCsrrwi ||
                          insn.rs1 != 0;  // csrrs/c with x0/zimm 0 are reads
      if (writes) grow_tag(csr_ub_, src.t);
      if (insn.imm == 0x305 && writes) {  // mtvec
        branch_check(src.t, pc, "core.trap-vector");
        const bool set_like = insn.op == Op::kCsrrs || insn.op == Op::kCsrrc ||
                              insn.op == Op::kCsrrsi || insn.op == Op::kCsrrci;
        if (set_like && !(src.iv.singleton() && src.iv.lo == 0)) {
          mtvec_unknown_ = true;
        } else if (!set_like) {
          if (src.iv.singleton() && (src.iv.lo & 3) == 0)
            register_trap_entry(src.iv.lo);
          else
            mtvec_unknown_ = true;
        }
      }
      taint_dep_pcs_.insert(pc);  // rd taint tracks csr_ub_ growth
      RegState out = in;
      if (insn.rd != 0) out[insn.rd] = {Interval::top(), csr_ub_};
      fall(std::move(out));
      return;
    }
    case Op::kMret:
      branch_check(csr_ub_, pc, "core.mret");
      return;  // return-to-interrupted-context: no static successor
    case Op::kFence:
    case Op::kWfi:
      fall(in);
      return;
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kIllegal:
      // Synchronous trap: the handler entries are analyzed with a
      // conservative entry state already; the trapping path itself ends.
      return;
    default:
      return;
  }
}

AnalysisResult Analyzer::run() {
  lat_ = pol_ ? &pol_->lattice() : nullptr;
  ram_size_ = opts_.ram_size;

  // Materialize the image (zero-filled to the segment extent).
  std::uint64_t ext = 0;
  for (const auto& seg : prog_.segments) {
    if (seg.base < base_ || seg.base + seg.bytes.size() > base_ + ram_size_) {
      image_bad_ = true;
      finding("analysis-limit", "image", 0,
              "segment outside RAM; analysis skipped", false);
      return finish();
    }
    ext = std::max(ext, seg.base + seg.bytes.size() - base_);
  }
  image_.assign(static_cast<std::size_t>(ext), 0);
  for (const auto& seg : prog_.segments)
    std::copy(seg.bytes.begin(), seg.bytes.end(),
              image_.begin() + static_cast<std::ptrdiff_t>(seg.base - base_));
  mem_taint_.assign(image_.size(), kBottomTag);

  // Taint sources: load-time memory classification + peripheral inputs +
  // declassification targets (a declassifying peripheral *introduces* its
  // target class into the system).
  if (pol_) {
    for (const auto& mc : pol_->memory_classification()) {
      program_ub_ = lub(program_ub_, mc.tag);
      if (mc.tag == kBottomTag) continue;
      const std::uint64_t lo = std::max(mc.base, base_);
      const std::uint64_t hi = mc.base + mc.size;  // exclusive
      for (std::uint64_t a = lo; a < hi && a - base_ < image_.size(); ++a)
        mem_taint_[static_cast<std::size_t>(a - base_)] =
            lub(mem_taint_[static_cast<std::size_t>(a - base_)], mc.tag);
      if (hi > base_ + image_.size() && mc.base < base_ + ram_size_)
        beyond_tag_ = lub(beyond_tag_, mc.tag);
    }
    for (const auto& [dev, tag] : pol_->input_classes())
      program_ub_ = lub(program_ub_, tag);
    for (const auto& [dev, tag] : pol_->declass_outputs())
      program_ub_ = lub(program_ub_, tag);
  }

  if (!in_ram(prog_.entry)) {
    image_bad_ = true;
    finding("analysis-limit", "image", prog_.entry,
            "entry point outside RAM", false);
    return finish();
  }

  // Boot state matches rv::Core::reset(): every register zero, untainted.
  register_function(static_cast<std::uint32_t>(prog_.entry));
  leaders_.insert(static_cast<std::uint32_t>(prog_.entry));
  RegState boot;
  for (int i = 0; i < 32; ++i) boot[i] = {Interval::exact(0), kBottomTag};
  deliver(static_cast<std::uint32_t>(prog_.entry), boot,
          {func_id_[static_cast<std::uint32_t>(prog_.entry)]});

  // Fixpoint: drain the worklist; when the global taint state grew, re-run
  // every taint-dependent instruction (loads, CSR reads) and drain again.
  for (;;) {
    while (!wl_.empty()) {
      if (steps_ > opts_.max_steps) {
        budget_out_ = true;
        finding("analysis-limit", "budget", 0,
                "abstract-transfer budget exhausted; result incomplete", false);
        wl_.clear();
        in_wl_.clear();
        break;
      }
      const auto [pc, idx] = wl_.front();
      wl_.pop_front();
      in_wl_.erase({pc, idx});
      const auto it = pcs_.find(pc);
      if (it == pcs_.end()) continue;
      if (idx >= 0 && idx < static_cast<int>(it->second.states.size()))
        process(pc, it->second.states[static_cast<std::size_t>(idx)].st);
      else if (idx == -1 && it->second.over)
        process(pc, *it->second.over);
    }
    if (!mem_dirty_ || budget_out_) break;
    mem_dirty_ = false;
    for (std::uint32_t pc : taint_dep_pcs_) requeue_all(pc);
  }

  return finish();
}

AnalysisResult Analyzer::finish() {
  AnalysisResult r;
  r.entry = prog_.entry;
  r.trap_entries.assign(trap_entries_.begin(), trap_entries_.end());
  for (std::uint32_t f : func_entry_) r.call_entries.push_back(f);
  r.unresolved_indirects.assign(unresolved_.begin(), unresolved_.end());
  r.reachable_instructions = pcs_.size();

  // Which image bytes hold reachable instructions (for SMC + coverage).
  std::vector<std::uint8_t> code(image_.size(), 0);
  for (const auto& [pc, pi] : pcs_) {
    const Insn insn = decode_at(pc);
    for (std::uint32_t i = 0; i < insn.len; ++i) {
      const std::uint64_t off = pc - base_ + i;
      if (off < code.size()) code[static_cast<std::size_t>(off)] = 1;
    }
  }

  // SMC: reachable stores whose (hull) range intersects reachable code.
  for (const auto& [pc, pi] : pcs_) {
    if (!pi.is_store || pi.acc != AccKind::kRam) continue;
    bool hits_code = false;
    for (std::uint64_t a = pi.acc_lo; a <= pi.acc_hi && !hits_code; ++a) {
      const std::uint64_t off = a - base_;
      hits_code = off < code.size() && code[static_cast<std::size_t>(off)];
    }
    if (hits_code) {
      r.smc_stores.push_back(pc);
      finding("smc-store", "core.lsu", pc,
              "store may overwrite reachable code (self-modifying or "
              "code-injection capable)",
              false);
    }
  }

  // Linear sweep over the text region (coverage comparison only).
  if (!prog_.segments.empty()) {
    const std::uint64_t text_base = prog_.segments.front().base;
    const std::uint64_t text_end = text_base + prog_.text_bytes;
    for (std::uint64_t pc = text_base; pc + 2 <= text_end;) {
      const Insn insn = rv::decode_any(fetch_u32(pc - base_));
      if (insn.op != Op::kIllegal) {
        ++r.linear_sweep_instructions;
        pc += insn.len;
      } else {
        pc += 2;
      }
    }
    for (std::uint64_t a = text_base; a < text_end; ++a) {
      const std::uint64_t off = a - base_;
      if (off < code.size() && !code[static_cast<std::size_t>(off)])
        ++r.unreachable_bytes;
    }
  }

  r.complete = !image_bad_ && !budget_out_ && !mtvec_unknown_ &&
               unresolved_.empty();
  r.taint_free = program_ub_ == kBottomTag;

  for (std::uint32_t pc : unresolved_)
    finding("unresolved-indirect", "core.jalr", pc,
            "indirect jump target could not be resolved; CFG incomplete",
            false);
  if (mtvec_unknown_)
    finding("analysis-limit", "core.trap-vector", 0,
            "a trap-vector write could not be resolved; CFG incomplete",
            false);

  // Fetch clearance: reachable code bytes that may be classified.
  if (pol_) {
    if (auto c = pol_->execution_clearance().fetch) {
      Tag code_tag = kBottomTag;
      for (std::size_t i = 0; i < code.size(); ++i)
        if (code[i]) code_tag = lub(code_tag, poisoned_ ? program_ub_ : mem_taint_[i]);
      if (!flows(code_tag, *c))
        violation("core.fetch", 0, code_tag, *c, "instruction fetch");
    }
  }

  // ---- policy lint ---------------------------------------------------------
  if (pol_ && lat_) {
    for (const auto& [a, b] : lat_->flow_edges()) {
      bool exercised = false;
      for (const auto& [f, t] : checked_)
        if (lat_->allowed_flow(f, a) && lat_->allowed_flow(b, t)) {
          exercised = true;
          break;
        }
      if (!exercised)
        finding("dead-flow-rule",
                "'" + lat_->name_of(a) + "' -> '" + lat_->name_of(b) + "'", 0,
                "flow rule is never exercised by any statically reachable "
                "check",
                false);
    }
    for (const auto& [dev, tag] : pol_->declass_outputs())
      if (dev == "aes0" && !aes_output_read_)
        finding("unused-declass-grant", dev, 0,
                "declassified output of '" + dev +
                    "' is never read on any reachable path",
                false);
    for (const auto& [dev, tag] : pol_->output_clearances()) {
      const bool reached = dev == "uart0.tx"    ? uart_tx_stored_
                           : dev == "can0.tx"   ? can_tx_stored_
                           : dev == "gpio0.out" ? gpio_out_stored_
                                                : true;  // unknown: assume used
      if (!reached)
        finding("unreachable-clearance-site", dev, 0,
                "output clearance on '" + dev +
                    "' guards an interface no reachable store writes",
                false);
    }
    for (const auto& [dev, tag] : pol_->unit_clearances())
      if (dev == "aes0" && !aes_key_stored_)
        finding("unreachable-clearance-site", dev, 0,
                "unit clearance on '" + dev +
                    "' guards a port no reachable store writes",
                false);
    for (const auto& p : pol_->store_protection()) {
      bool stored = false;
      for (const auto& [pc, pi] : pcs_) {
        if (!pi.is_store || pi.acc == AccKind::kNone) continue;
        if (pi.acc == AccKind::kWide ||
            (pi.acc_lo < p.base + p.size && pi.acc_hi >= p.base)) {
          stored = true;
          break;
        }
      }
      if (!stored) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(p.base));
        finding("unreachable-clearance-site",
                std::string("store-protection@") + buf, 0,
                "integrity-protected region is never stored to on any "
                "reachable path",
                false);
      }
    }
  }

  // ---- basic blocks --------------------------------------------------------
  std::optional<BlockSummary> cur;
  std::uint32_t expected_next = 0;
  for (const auto& [pc, pi] : pcs_) {
    const Insn insn = decode_at(pc);
    const bool leader = leaders_.count(pc) != 0;
    if (cur && (pc != expected_next || leader)) {
      r.blocks.push_back(*cur);
      cur.reset();
    }
    if (!cur) {
      cur = BlockSummary{pc, pc, false};
    }
    cur->end = pc + insn.len;
    cur->touches_taint |= pi.taint_touch;
    expected_next = static_cast<std::uint32_t>(pc) + insn.len;
    if (classify(insn) == InsnClass::kTerminator ||
        classify(insn) == InsnClass::kBranch) {
      r.blocks.push_back(*cur);
      cur.reset();
    }
  }
  if (cur) r.blocks.push_back(*cur);

  r.findings = findings_;
  for (const auto& f : r.findings)
    if (f.reachable) ++r.reachable_violations;
  return r;
}

}  // namespace

AnalysisResult analyze(const rvasm::Program& prog,
                       const dift::SecurityPolicy* policy,
                       const AnalyzeOptions& opts) {
  return Analyzer(prog, policy, opts).run();
}

}  // namespace vpdift::sa
