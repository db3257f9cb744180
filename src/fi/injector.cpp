#include "fi/injector.hpp"

#include <cstring>

#include "dift/shadow.hpp"
#include "soc/addrmap.hpp"
#include "tlmlite/payload.hpp"

namespace vpdift::fi {

namespace {

/// Corrupts a run of taint tags, picked deterministically from the fault's
/// seed and the machine state at the moment the fault fires. Three equally
/// likely sub-modes model the ways shadow-memory soft errors matter:
///
///   pc-local    — tags of the code the core is executing right now (the
///                 shadow words with the hottest access pattern),
///   tag-region  — a contiguous same-tag run somewhere in RAM (a burst
///                 error over one classified object: a key, a payload),
///   random byte — anywhere in the tainted portion of RAM.
///
/// Half of all corruptions drop to kBottomTag — the fail-open direction,
/// where the question is whether the DIFT protection silently disappears —
/// and half jump to an arbitrary lattice class (fail-closed: spurious
/// violations). No tainted bytes at fire time = the fault is masked.
///
/// The corruption goes through the coherence contract — plane write, then
/// on_store() — so the engine's fetch-clearance check and summary fast
/// paths observe the corrupted tags exactly like DIFT hardware would observe
/// a real shadow-memory bit error. The shadow summary also keeps the scans
/// cheap: blocks summarised as uniform kBottomTag (summary 0) are skipped.
void corrupt_tags(vp::VpDift& v, const FaultSpec& f, std::uint32_t pc) {
  soc::Memory& mem = v.ram();
  dift::Tag* tags = mem.tags();
  if (!tags) return;
  const dift::ShadowSummary& sh = mem.shadow();
  constexpr std::size_t kBlock = dift::ShadowSummary::kBlockBytes;

  Rng rng(f.seed);
  const std::size_t classes =
      v.policy() ? v.policy()->lattice().size() : std::size_t(2);
  const std::uint64_t mode = rng.below(3);
  // Drawn up front so every mode consumes the same rng stream length.
  const std::size_t span_draw = std::size_t(1) << rng.below(7);  // 1..64
  const dift::Tag nt = (rng.next() & 1)
                           ? dift::kBottomTag
                           : static_cast<dift::Tag>(rng.below(classes));

  auto apply = [&](std::size_t start, std::size_t len) {
    if (start >= mem.size() || len == 0) return;
    len = std::min(len, mem.size() - start);
    for (std::size_t i = start; i < start + len; ++i) tags[i] = nt;
    mem.shadow().on_store(start, len, nt);
  };

  if (mode == 0) {
    // pc-local: corrupt the shadow of the code being executed.
    const std::uint64_t base = soc::addrmap::kRamBase;
    if (pc >= base && pc - base < mem.size()) apply(pc - base, span_draw);
    return;
  }

  if (mode == 1) {
    // tag-region: pick one of the distinct non-bottom tag values present,
    // then a random byte carrying it, then wipe its contiguous same-tag run.
    bool present[256] = {};
    std::size_t per_tag[256] = {};
    for (std::size_t b = 0; b < sh.block_count(); ++b) {
      if (sh.block_summary(b) == 0) continue;
      const std::size_t end = std::min((b + 1) * kBlock, mem.size());
      for (std::size_t i = b * kBlock; i < end; ++i)
        if (tags[i] != dift::kBottomTag) {
          present[tags[i]] = true;
          ++per_tag[tags[i]];
        }
    }
    std::size_t distinct = 0;
    for (bool p : present) distinct += p;
    if (distinct == 0) return;
    std::uint64_t pick = rng.below(distinct);
    dift::Tag t = dift::kBottomTag;
    for (std::size_t i = 0; i < 256; ++i)
      if (present[i] && pick-- == 0) { t = static_cast<dift::Tag>(i); break; }
    std::size_t k = rng.below(per_tag[t]);
    std::size_t hit = 0;
    bool found = false;
    for (std::size_t b = 0; b < sh.block_count() && !found; ++b) {
      if (sh.block_summary(b) == 0) continue;
      const std::size_t end = std::min((b + 1) * kBlock, mem.size());
      for (std::size_t i = b * kBlock; i < end; ++i) {
        if (tags[i] != t) continue;
        if (k == 0) { hit = i; found = true; break; }
        --k;
      }
    }
    if (!found) return;
    std::size_t lo = hit, hi = hit + 1;
    while (lo > 0 && hit - (lo - 1) < 256 && tags[lo - 1] == t) --lo;
    while (hi < mem.size() && hi - lo < 256 && tags[hi] == t) ++hi;
    apply(lo, hi - lo);
    return;
  }

  // random byte: anywhere tainted, a short span.
  std::size_t tainted = 0;
  for (std::size_t b = 0; b < sh.block_count(); ++b) {
    if (sh.block_summary(b) == 0) continue;
    const std::size_t end = std::min((b + 1) * kBlock, mem.size());
    for (std::size_t i = b * kBlock; i < end; ++i)
      if (tags[i] != dift::kBottomTag) ++tainted;
  }
  if (tainted == 0) return;
  std::size_t k = rng.below(tainted);
  for (std::size_t b = 0; b < sh.block_count(); ++b) {
    if (sh.block_summary(b) == 0) continue;
    const std::size_t end = std::min((b + 1) * kBlock, mem.size());
    for (std::size_t i = b * kBlock; i < end; ++i) {
      if (tags[i] == dift::kBottomTag) continue;
      if (k == 0) { apply(i, span_draw); return; }
      --k;
    }
  }
}

}  // namespace

void apply_now(vp::VpDift& v, const FaultSpec& f) {
  switch (f.model) {
    case FaultModel::kGprFlip: {
      if (f.reg == 0) break;  // x0 is hardwired
      using Ops = rv::WordOps<rv::TaintedWord>;
      rv::Core<rv::TaintedWord>& c = v.core();
      const auto w = c.reg(f.reg & 31);
      c.set_reg(f.reg & 31, Ops::make(Ops::value(w) ^ f.bits, Ops::tag(w)));
      break;
    }
    case FaultModel::kRamFlip:
      if (f.offset < v.ram().size())
        v.ram().flip_bits(f.offset, static_cast<std::uint8_t>(f.bits));
      break;
    case FaultModel::kTagCorrupt:
      corrupt_tags(v, f, v.core().pc());
      break;
    case FaultModel::kUartRxDrop:
      v.uart().fi_drop_rx(f.span);
      break;
    case FaultModel::kUartRxCorrupt:
      v.uart().fi_corrupt_rx(f.span, static_cast<std::uint8_t>(f.bits));
      break;
    case FaultModel::kCanErrorFrame:
      v.can().fi_drop_rx_frame();
      break;
    case FaultModel::kCanBusOff:
      v.can().fi_set_bus_off(true);
      break;
    case FaultModel::kSensorStuck:
      v.sensor().fi_set_stuck(true);
      break;
    case FaultModel::kFlashCorrupt:
      if (v.flash())
        v.flash()->fi_corrupt_reads(f.span, static_cast<std::uint8_t>(f.bits));
      break;
    case FaultModel::kIrqSpurious:
      v.plic().raise(f.irq_src & 31);
      break;
    case FaultModel::kIrqSuppress:
      v.plic().fi_set_suppressed(1u << (f.irq_src & 31));
      break;
  }
}

void arm(vp::VpDift& v, const FaultSpec& fault) {
  vp::VpDift* vp = &v;
  const FaultSpec f = fault;
  switch (f.model) {
    case FaultModel::kGprFlip:
    case FaultModel::kRamFlip:
    case FaultModel::kTagCorrupt:
      // Architectural faults: block-boundary hook at the exact retired-
      // instruction count. The callback's machine state is what apply_now
      // mutates — identical to the fork engine applying after a restore of
      // a snapshot captured at the same point.
      v.core().arm_fault(f.trigger_instret,
                         [vp, f](rv::Core<rv::TaintedWord>&) { apply_now(*vp, f); });
      break;
    default:
      // Peripheral/IRQ faults: fire at the simulated-time trigger.
      vp->sim().schedule_in(sysc::Time::us(f.trigger_us),
                            [vp, f] { apply_now(*vp, f); });
      break;
  }
}

void arm_watchdog(vp::VpDift& v, std::uint32_t timeout_us) {
  auto write32 = [&v](std::uint64_t reg, std::uint32_t value) {
    std::uint8_t buf[4];
    std::memcpy(buf, &value, 4);
    tlmlite::Payload p;
    p.command = tlmlite::Command::kWrite;
    p.address = reg;
    p.data = buf;
    p.length = 4;
    sysc::Time d;
    v.watchdog().socket().b_transport(p, d);
  };
  write32(soc::Watchdog::kLoad, timeout_us);
  write32(soc::Watchdog::kCtrl, 1);
}

}  // namespace vpdift::fi
