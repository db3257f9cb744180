// SHA-512 firmware for RV32IM.
//
// SHA-512 operates on 64-bit words; RV32 has none, so every 64-bit operation
// is synthesised over (lo, hi) register pairs: add64 is add + carry (sltu) +
// add, rotr64/shr64 split across the two halves. Working state and message
// schedule live in memory (not enough registers for eight 64-bit variables).
// This reproduces the paper's sha512 Table II workload faithfully — it is
// exactly the kind of code newlib's sha512 compiles to at -O0/-O1 on RV32.
#include <cassert>

#include "fw/benchmarks.hpp"
#include "fw/hal.hpp"
#include "fw/host_ref.hpp"
#include "rvasm/assembler.hpp"
#include "soc/addrmap.hpp"

namespace vpdift::fw {

using namespace rvasm::reg;
using rvasm::Assembler;
using rvasm::Reg;

namespace {

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ull, 0x7137449123ef65cdull, 0xb5c0fbcfec4d3b2full,
    0xe9b5dba58189dbbcull, 0x3956c25bf348b538ull, 0x59f111f1b605d019ull,
    0x923f82a4af194f9bull, 0xab1c5ed5da6d8118ull, 0xd807aa98a3030242ull,
    0x12835b0145706fbeull, 0x243185be4ee4b28cull, 0x550c7dc3d5ffb4e2ull,
    0x72be5d74f27b896full, 0x80deb1fe3b1696b1ull, 0x9bdc06a725c71235ull,
    0xc19bf174cf692694ull, 0xe49b69c19ef14ad2ull, 0xefbe4786384f25e3ull,
    0x0fc19dc68b8cd5b5ull, 0x240ca1cc77ac9c65ull, 0x2de92c6f592b0275ull,
    0x4a7484aa6ea6e483ull, 0x5cb0a9dcbd41fbd4ull, 0x76f988da831153b5ull,
    0x983e5152ee66dfabull, 0xa831c66d2db43210ull, 0xb00327c898fb213full,
    0xbf597fc7beef0ee4ull, 0xc6e00bf33da88fc2ull, 0xd5a79147930aa725ull,
    0x06ca6351e003826full, 0x142929670a0e6e70ull, 0x27b70a8546d22ffcull,
    0x2e1b21385c26c926ull, 0x4d2c6dfc5ac42aedull, 0x53380d139d95b3dfull,
    0x650a73548baf63deull, 0x766a0abb3c77b2a8ull, 0x81c2c92e47edaee6ull,
    0x92722c851482353bull, 0xa2bfe8a14cf10364ull, 0xa81a664bbc423001ull,
    0xc24b8b70d0f89791ull, 0xc76c51a30654be30ull, 0xd192e819d6ef5218ull,
    0xd69906245565a910ull, 0xf40e35855771202aull, 0x106aa07032bbd1b8ull,
    0x19a4c116b8d2d0c8ull, 0x1e376c085141ab53ull, 0x2748774cdf8eeb99ull,
    0x34b0bcb5e19b48a8ull, 0x391c0cb3c5c95a63ull, 0x4ed8aa4ae3418acbull,
    0x5b9cca4f7763e373ull, 0x682e6ff3d6b2b8a3ull, 0x748f82ee5defb2fcull,
    0x78a5636f43172f60ull, 0x84c87814a1f0ab72ull, 0x8cc702081a6439ecull,
    0x90befffa23631e28ull, 0xa4506cebde82bde9ull, 0xbef9a3f7b2c67915ull,
    0xc67178f2e372532bull, 0xca273eceea26619cull, 0xd186b8c721c0c207ull,
    0xeada7dd6cde0eb1eull, 0xf57d4f7fee6ed178ull, 0x06f067aa72176fbaull,
    0x0a637dc5a2c898a6ull, 0x113f9804bef90daeull, 0x1b710b35131c471bull,
    0x28db77f523047d84ull, 0x32caab7b40c72493ull, 0x3c9ebe0a15c9bebcull,
    0x431d67c49c100d4cull, 0x4cc5d4becb3e42b6ull, 0x597f299cfc657e2aull,
    0x5fcb6fab3ad6faecull, 0x6c44198c4a475817ull};

constexpr std::uint64_t kH512[8] = {
    0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull, 0x3c6ef372fe94f82bull,
    0xa54ff53a5f1d36f1ull, 0x510e527fade682d1ull, 0x9b05688c2b3e6c1full,
    0x1f83d9abfb41bd6bull, 0x5be0cd19137e2179ull};

/// A 64-bit value held as an RV32 register pair.
struct Pair {
  Reg lo, hi;
};

[[maybe_unused]] bool disjoint(Pair a, Pair b) {
  return a.lo != b.lo && a.lo != b.hi && a.hi != b.lo && a.hi != b.hi;
}
[[maybe_unused]] bool in_pair(Reg r, Pair p) {
  return r == p.lo || r == p.hi;
}

void load64(Assembler& a, Pair d, Reg base, int off) {
  a.lw(d.lo, base, off);
  a.lw(d.hi, base, off + 4);
}

void store64(Assembler& a, Pair s, Reg base, int off) {
  a.sw(s.lo, base, off);
  a.sw(s.hi, base, off + 4);
}

void xor64(Assembler& a, Pair d, Pair x, Pair y) {
  assert(d.lo != x.hi && d.lo != y.hi);
  a.xor_(d.lo, x.lo, y.lo);
  a.xor_(d.hi, x.hi, y.hi);
}

void and64(Assembler& a, Pair d, Pair x, Pair y) {
  assert(d.lo != x.hi && d.lo != y.hi);
  a.and_(d.lo, x.lo, y.lo);
  a.and_(d.hi, x.hi, y.hi);
}

void not64(Assembler& a, Pair d, Pair s) {
  assert(d.lo != s.hi);
  a.xori(d.lo, s.lo, -1);
  a.xori(d.hi, s.hi, -1);
}

/// d = x + y with carry between the halves (carry computed in `tmp`).
void add64(Assembler& a, Pair d, Pair x, Pair y, Reg tmp) {
  assert(d.lo != y.lo && d.lo != x.hi && d.lo != y.hi);
  assert(tmp != d.hi && tmp != d.lo && !in_pair(tmp, x) && !in_pair(tmp, y));
  a.add(d.lo, x.lo, y.lo);
  a.sltu(tmp, d.lo, y.lo);  // carry iff the 32-bit sum wrapped
  a.add(d.hi, x.hi, y.hi);
  a.add(d.hi, d.hi, tmp);
}

/// d = s rotated right by n (1..63). d, s, tmp pairwise disjoint.
void rotr64(Assembler& a, Pair d, Pair s, unsigned n, Reg tmp) {
  assert(disjoint(d, s) && !in_pair(tmp, d) && !in_pair(tmp, s));
  if (n == 32) {
    a.mv(d.lo, s.hi);
    a.mv(d.hi, s.lo);
    return;
  }
  const Reg from_lo = n < 32 ? s.lo : s.hi;
  const Reg from_hi = n < 32 ? s.hi : s.lo;
  const unsigned m = n < 32 ? n : n - 32;
  a.srli(d.lo, from_lo, m);
  a.slli(tmp, from_hi, 32 - m);
  a.or_(d.lo, d.lo, tmp);
  a.srli(d.hi, from_hi, m);
  a.slli(tmp, from_lo, 32 - m);
  a.or_(d.hi, d.hi, tmp);
}

/// d = s >> n (logical, 1..31). d and s disjoint.
void shr64(Assembler& a, Pair d, Pair s, unsigned n) {
  assert(disjoint(d, s) && n > 0 && n < 32);
  a.srli(d.lo, s.lo, n);
  a.slli(d.hi, s.hi, 32 - n);  // bits crossing into the low half
  a.or_(d.lo, d.lo, d.hi);
  a.srli(d.hi, s.hi, n);
}

/// Loads 8 bytes at base+off (big-endian on the wire) into the (lo,hi) pair.
/// Clobbers `t` and `u`.
void load64_be(Assembler& a, Pair d, Reg base, int off, Reg t) {
  assert(!in_pair(t, d) && t != base && d.lo != base && d.hi != base);
  // hi = bytes [off..off+3], lo = bytes [off+4..off+7].
  a.lbu(d.hi, base, off);
  a.slli(d.hi, d.hi, 24);
  for (int b = 1; b < 4; ++b) {
    a.lbu(t, base, off + b);
    if (b < 3) a.slli(t, t, 8 * (3 - b));
    a.or_(d.hi, d.hi, t);
  }
  a.lbu(d.lo, base, off + 4);
  a.slli(d.lo, d.lo, 24);
  for (int b = 1; b < 4; ++b) {
    a.lbu(t, base, off + 4 + b);
    if (b < 3) a.slli(t, t, 8 * (3 - b));
    a.or_(d.lo, d.lo, t);
  }
}

/// Emits sha512_compress(a0 = 128-byte block). Leaf routine; clobbers
/// t0-t6, a1-a7, s2-s9. State layout: sha512_st / sha512_hstate hold eight
/// 64-bit words as (lo32, hi32) little-endian pairs, a..h at offsets 0..56.
void emit_compress(Assembler& a) {
  const Pair PA{t0, t1}, PB{t2, t3}, PC{t4, t5}, PD{a4, a5}, PX{s6, s7},
      ACC1{s2, s3}, ACC2{s4, s5}, PS{s8, s9};
  const Reg tmp = a3;

  a.label("sha512_compress");
  // Working copy: st = hstate.
  a.la(t6, "sha512_hstate");
  a.la(a2, "sha512_st");
  for (int j = 0; j < 16; ++j) {
    a.lw(t0, t6, 4 * j);
    a.sw(t0, a2, 4 * j);
  }

  // W[0..15]: big-endian 64-bit loads from the block.
  a.la(t6, "sha512_w");
  a.li(a1, 0);
  a.label("s512_wload");
  a.slli(t0, a1, 3);
  a.add(a2, a0, t0);
  load64_be(a, PB, a2, 0, t4);
  a.slli(t0, a1, 3);
  a.add(a2, t6, t0);
  store64(a, PB, a2, 0);
  a.addi(a1, a1, 1);
  a.li(t0, 16);
  a.bltu(a1, t0, "s512_wload");

  // Message-schedule extension: W[i] = s1(W[i-2]) + W[i-7] + s0(W[i-15]) + W[i-16].
  a.label("s512_wext");
  a.slli(t0, a1, 3);
  a.add(a2, t6, t0);       // &W[i]
  load64(a, PX, a2, -120);  // W[i-15]
  rotr64(a, PA, PX, 1, tmp);
  rotr64(a, PB, PX, 8, tmp);
  xor64(a, PA, PA, PB);
  shr64(a, PB, PX, 7);
  xor64(a, PA, PA, PB);    // sigma0
  load64(a, PX, a2, -16);  // W[i-2]
  rotr64(a, PB, PX, 19, tmp);
  rotr64(a, PC, PX, 61, tmp);
  xor64(a, PB, PB, PC);
  shr64(a, PC, PX, 6);
  xor64(a, PB, PB, PC);     // sigma1
  load64(a, PC, a2, -128);  // W[i-16]
  add64(a, PA, PA, PC, tmp);
  load64(a, PC, a2, -56);   // W[i-7]
  add64(a, PA, PA, PC, tmp);
  add64(a, PA, PA, PB, tmp);
  store64(a, PA, a2, 0);
  a.addi(a1, a1, 1);
  a.li(t0, 80);
  a.bltu(a1, t0, "s512_wext");

  // 80 rounds over the memory-resident state.
  a.la(t6, "sha512_st");
  a.li(a1, 0);
  a.label("s512_round");
  load64(a, PX, t6, 32);  // e
  rotr64(a, PA, PX, 14, tmp);
  rotr64(a, PB, PX, 18, tmp);
  xor64(a, PA, PA, PB);
  rotr64(a, PB, PX, 41, tmp);
  xor64(a, PA, PA, PB);   // S1(e)
  load64(a, PB, t6, 40);  // f
  and64(a, PB, PX, PB);   // e & f
  not64(a, PS, PX);       // ~e
  load64(a, PC, t6, 48);  // g
  and64(a, PS, PS, PC);
  xor64(a, PB, PB, PS);     // ch
  load64(a, ACC1, t6, 56);  // h
  add64(a, ACC1, ACC1, PA, tmp);
  add64(a, ACC1, ACC1, PB, tmp);
  a.slli(a2, a1, 3);
  a.la(t4, "sha512_k");
  a.add(t4, t4, a2);
  load64(a, PB, t4, 0);  // K[i]
  add64(a, ACC1, ACC1, PB, tmp);
  a.la(t4, "sha512_w");
  a.add(t4, t4, a2);
  load64(a, PB, t4, 0);  // W[i]
  add64(a, ACC1, ACC1, PB, tmp);  // t1 accumulator done

  load64(a, PX, t6, 0);  // a
  rotr64(a, PA, PX, 28, tmp);
  rotr64(a, PB, PX, 34, tmp);
  xor64(a, PA, PA, PB);
  rotr64(a, PB, PX, 39, tmp);
  xor64(a, PA, PA, PB);   // S0(a)
  load64(a, PB, t6, 8);   // b
  load64(a, PC, t6, 16);  // c
  and64(a, PS, PX, PB);   // a&b
  and64(a, PD, PX, PC);   // a&c
  xor64(a, PS, PS, PD);
  and64(a, PB, PB, PC);  // b&c
  xor64(a, PS, PS, PB);  // maj
  add64(a, ACC2, PA, PS, tmp);

  // State rotation: h=g, g=f, f=e (copy downwards, highest pair first).
  for (int src = 48; src >= 32; src -= 8)
    for (int word = 0; word < 8; word += 4) {
      a.lw(t0, t6, src + word);
      a.sw(t0, t6, src + 8 + word);
    }
  // e = d + t1
  load64(a, PA, t6, 24);
  add64(a, PA, PA, ACC1, tmp);
  store64(a, PA, t6, 32);
  // d=c, c=b, b=a
  for (int src = 16; src >= 0; src -= 8)
    for (int word = 0; word < 8; word += 4) {
      a.lw(t0, t6, src + word);
      a.sw(t0, t6, src + 8 + word);
    }
  // a = t1 + t2
  add64(a, PA, ACC1, ACC2, tmp);
  store64(a, PA, t6, 0);
  a.addi(a1, a1, 1);
  a.li(t0, 80);
  a.bltu(a1, t0, "s512_round");

  // hstate += st.
  a.la(a2, "sha512_hstate");
  for (int j = 0; j < 8; ++j) {
    load64(a, PA, a2, 8 * j);
    load64(a, PB, t6, 8 * j);
    add64(a, PA, PA, PB, tmp);
    store64(a, PA, a2, 8 * j);
  }
  a.ret();
}

/// Emits sha512(a0 = ptr, a1 = len, a2 = out[64]).
void emit_sha512_fn(Assembler& a) {
  a.label("sha512");
  a.addi(sp, sp, -32);
  a.sw(ra, sp, 28);
  a.sw(s0, sp, 24);
  a.sw(s1, sp, 20);
  a.sw(s10, sp, 16);
  a.sw(s11, sp, 12);
  a.mv(s0, a0);   // cursor
  a.mv(s1, a1);   // remaining
  a.mv(s10, a1);  // total length
  a.mv(s11, a2);  // out
  // hstate = H0.
  a.la(t0, "sha512_hstate");
  a.la(t1, "sha512_h0");
  for (int j = 0; j < 16; ++j) {
    a.lw(t2, t1, 4 * j);
    a.sw(t2, t0, 4 * j);
  }
  // Full 128-byte blocks.
  a.label("s512_full");
  a.li(t0, 128);
  a.bltu(s1, t0, "s512_pad");
  a.mv(a0, s0);
  a.call("sha512_compress");
  a.addi(s0, s0, 128);
  a.addi(s1, s1, -128);
  a.j("s512_full");
  // Padding into the 256-byte pad buffer.
  a.label("s512_pad");
  a.la(t0, "sha512_pad");
  for (int j = 0; j < 256; j += 4) a.sw(zero, t0, j);
  a.mv(t1, s0);
  a.mv(t2, s1);
  a.label("s512_pad.copy");
  a.beqz(t2, "s512_pad.copied");
  a.lbu(t3, t1, 0);
  a.sb(t3, t0, 0);
  a.addi(t0, t0, 1);
  a.addi(t1, t1, 1);
  a.addi(t2, t2, -1);
  a.j("s512_pad.copy");
  a.label("s512_pad.copied");
  a.li(t3, 0x80);
  a.sb(t3, t0, 0);  // t0 == pad + remainder
  // 128-bit big-endian bit length at the end of the final block; only the
  // low 64 bits are ever nonzero here. t1 = len*8 low, t2 = len >> 29.
  a.slli(t1, s10, 3);
  a.srli(t2, s10, 29);
  a.la(t0, "sha512_pad");
  a.li(t3, 112);
  a.bltu(s1, t3, "s512_pad.one");
  a.addi(t0, t0, 128);  // length lands in the second block
  a.label("s512_pad.one");
  for (int b = 0; b < 4; ++b) {
    a.srli(t4, t2, 24 - 8 * b);
    a.sb(t4, t0, 120 + b);
  }
  for (int b = 0; b < 4; ++b) {
    a.srli(t4, t1, 24 - 8 * b);
    a.sb(t4, t0, 124 + b);
  }
  a.la(a0, "sha512_pad");
  a.call("sha512_compress");
  a.li(t3, 112);
  a.bltu(s1, t3, "s512_out");
  a.la(a0, "sha512_pad");
  a.addi(a0, a0, 128);
  a.call("sha512_compress");
  // Output: big-endian bytes of the eight (lo,hi) state pairs.
  a.label("s512_out");
  a.la(t0, "sha512_hstate");
  for (int j = 0; j < 8; ++j) {
    a.lw(t1, t0, 8 * j);      // lo
    a.lw(t2, t0, 8 * j + 4);  // hi
    for (int b = 0; b < 4; ++b) {
      a.srli(t3, t2, 24 - 8 * b);
      a.sb(t3, s11, 8 * j + b);
    }
    for (int b = 0; b < 4; ++b) {
      a.srli(t3, t1, 24 - 8 * b);
      a.sb(t3, s11, 8 * j + 4 + b);
    }
  }
  a.lw(ra, sp, 28);
  a.lw(s0, sp, 24);
  a.lw(s1, sp, 20);
  a.lw(s10, sp, 16);
  a.lw(s11, sp, 12);
  a.addi(sp, sp, 32);
  a.ret();
}

}  // namespace

rvasm::Program make_sha512(std::uint32_t msg_len, std::uint32_t rounds) {
  Assembler a(soc::addrmap::kRamBase);
  emit_crt0(a);

  a.label("main");
  a.addi(sp, sp, -16);
  a.sw(ra, sp, 12);
  // Fill msg with LCG bytes (same generator as the sha256 workload).
  a.la(t5, "sha512_msg");
  a.li(t6, msg_len);
  a.li(t0, 0xdeadbeef);
  a.li(t3, 1103515245);
  a.li(t4, 12345);
  a.label("s512_msgfill");
  a.beqz(t6, "s512_msgdone");
  a.mul(t0, t0, t3);
  a.add(t0, t0, t4);
  a.srli(t1, t0, 16);
  a.sb(t1, t5, 0);
  a.addi(t5, t5, 1);
  a.addi(t6, t6, -1);
  a.j("s512_msgfill");
  a.label("s512_msgdone");
  a.la(a0, "sha512_msg");
  a.li(a1, msg_len);
  a.la(a2, "sha512_digest");
  a.call("sha512");
  a.li(s0, rounds > 0 ? rounds - 1 : 0);
  a.label("s512_chain");
  a.beqz(s0, "s512_chaindone");
  a.la(a0, "sha512_digest");
  a.li(a1, 64);
  a.la(a2, "sha512_digest");
  a.call("sha512");
  a.addi(s0, s0, -1);
  a.j("s512_chain");
  a.label("s512_chaindone");
  a.la(t0, "sha512_digest");
  a.lw(t1, t0, 0);
  a.li(t2, sha512_chain_word0(msg_len, rounds));
  a.li(a0, 0);
  a.beq(t1, t2, "s512_mainret");
  a.li(a0, 1);
  a.label("s512_mainret");
  a.lw(ra, sp, 12);
  a.addi(sp, sp, 16);
  a.ret();

  emit_sha512_fn(a);
  emit_compress(a);
  emit_stdlib(a);

  a.align(8);
  a.label("sha512_k");
  for (std::uint64_t k : kK512) {
    a.word(static_cast<std::uint32_t>(k));
    a.word(static_cast<std::uint32_t>(k >> 32));
  }
  a.label("sha512_h0");
  for (std::uint64_t h : kH512) {
    a.word(static_cast<std::uint32_t>(h));
    a.word(static_cast<std::uint32_t>(h >> 32));
  }
  a.label("sha512_hstate");
  a.zero_fill(64);
  a.label("sha512_st");
  a.zero_fill(64);
  a.label("sha512_w");
  a.zero_fill(640);
  a.label("sha512_pad");
  a.zero_fill(256);
  a.label("sha512_digest");
  a.zero_fill(64);
  a.label("sha512_msg");
  a.zero_fill(msg_len);
  a.entry("_start");
  return a.assemble();
}

}  // namespace vpdift::fw
