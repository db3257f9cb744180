// Micro-benchmarks of the DIFT engine primitives (google-benchmark):
//   * Taint<T> arithmetic vs plain integers (the per-instruction tax),
//   * dense precomputed LUB table vs an on-the-fly lattice walk (the
//     design-choice ablation from DESIGN.md),
//   * byte (de)serialisation used on the TLM path,
//   * lattice construction/validation cost by class count,
//   * shadow-summary queries and maintenance (the block fast path).
//
// Run with --benchmark_format=json (or --benchmark_out=FILE
// --benchmark_out_format=json) for a machine-readable report. End-to-end
// ISS rates are measured by bench/table2_overhead and vpbench.
#include <benchmark/benchmark.h>

#include <vector>

#include "dift/context.hpp"
#include "dift/lattice.hpp"
#include "dift/shadow.hpp"
#include "dift/taint.hpp"

using namespace vpdift;
using dift::DiftContext;
using dift::Lattice;
using dift::Tag;
using dift::Taint;

namespace {

void BM_PlainAdd(benchmark::State& state) {
  std::uint32_t a = 123456, b = 789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
    benchmark::DoNotOptimize(b = b ^ a);
  }
}
BENCHMARK(BM_PlainAdd);

void BM_TaintAddSameTag(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  Taint<std::uint32_t> a(123456, 2), b(789, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
    benchmark::DoNotOptimize(b = b ^ a);
  }
}
BENCHMARK(BM_TaintAddSameTag);

void BM_TaintAddMixedTags(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  Taint<std::uint32_t> a(123456, 1), b(789, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
    benchmark::DoNotOptimize(a ^ b);
  }
}
BENCHMARK(BM_TaintAddMixedTags);

// Ablation: dense table lookup vs recomputing the LUB by walking the lattice.
Tag slow_lub(const Lattice& l, Tag a, Tag b) {
  Tag best = 0;
  bool found = false;
  for (Tag c = 0; c < l.size(); ++c) {
    if (!l.allowed_flow(a, c) || !l.allowed_flow(b, c)) continue;
    if (!found || l.allowed_flow(c, best)) {
      best = c;
      found = true;
    }
  }
  return best;
}

void BM_LubDenseTable(benchmark::State& state) {
  const Lattice l = Lattice::with_per_byte_secret(
      Lattice::ifp3(), Lattice::ifp3().tag_of("(HC,HI)"), 16, "PIN");
  DiftContext ctx(l);
  Tag a = 0;
  for (auto _ : state) {
    a = static_cast<Tag>((a + 1) % l.size());
    benchmark::DoNotOptimize(dift::lub(a, 3));
  }
}
BENCHMARK(BM_LubDenseTable);

void BM_LubLatticeWalk(benchmark::State& state) {
  const Lattice l = Lattice::with_per_byte_secret(
      Lattice::ifp3(), Lattice::ifp3().tag_of("(HC,HI)"), 16, "PIN");
  Tag a = 0;
  for (auto _ : state) {
    a = static_cast<Tag>((a + 1) % l.size());
    benchmark::DoNotOptimize(slow_lub(l, a, 3));
  }
}
BENCHMARK(BM_LubLatticeWalk);

void BM_TaintToFromBytes(benchmark::State& state) {
  const Lattice l = Lattice::ifp1();
  DiftContext ctx(l);
  Taint<std::uint32_t> v(0xdeadbeef, 1);
  dift::TaintedByte bytes[4];
  for (auto _ : state) {
    v.to_bytes(bytes);
    Taint<std::uint32_t> back;
    back.from_bytes(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TaintToFromBytes);

void BM_LatticeBuild(benchmark::State& state) {
  const auto levels = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(Lattice::linear(levels));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LatticeBuild)->Arg(4)->Arg(16)->Arg(64)->Arg(128)->Complexity();

// Shadow-summary primitives: a uniform-block query vs the per-byte LUB loop
// it replaces, and the maintenance cost of a store that splits a block.
void BM_ShadowUniformQuery(benchmark::State& state) {
  std::vector<Tag> plane(1 << 16, Tag(2));
  dift::ShadowSummary shadow;
  shadow.attach(plane.data(), plane.size());
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    Tag t = 0;
    benchmark::DoNotOptimize(shadow.uniform(off, 4, &t));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShadowUniformQuery);

void BM_ShadowPerByteLub(benchmark::State& state) {
  const Lattice l = Lattice::ifp3();
  DiftContext ctx(l);
  std::vector<Tag> plane(1 << 16, Tag(2));
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    Tag t = plane[off];
    for (int i = 1; i < 4; ++i) t = dift::lub(t, plane[off + i]);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShadowPerByteLub);

void BM_ShadowStoreSplit(benchmark::State& state) {
  std::vector<Tag> plane(1 << 16, Tag(0));
  dift::ShadowSummary shadow;
  shadow.attach(plane.data(), plane.size());
  std::uint64_t off = 0;
  for (auto _ : state) {
    off = (off + 64) & 0xffff;
    plane[off] = Tag(1);
    shadow.on_store(off, 1, Tag(1));  // block goes mixed
    plane[off] = Tag(0);
    shadow.on_store(off, 1, Tag(0));  // stays mixed until rescanned
    shadow.rescan_block(off >> dift::ShadowSummary::kBlockShift);
  }
}
BENCHMARK(BM_ShadowStoreSplit);

}  // namespace

BENCHMARK_MAIN();
