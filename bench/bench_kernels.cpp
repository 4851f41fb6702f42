// google-benchmark microbenchmarks of the individual SNAP stages, the
// paper's Listing-1/Listing-5 building blocks, across 2J. Confirms the
// complexity hierarchy: compute_zi/yi O(J^7) per atom dominates at large
// 2J; the whole-atom rows show the adjoint win over the Listing-1
// baseline (per-neighbor dB O(J^5) vs dE O(J^3)).

#include <benchmark/benchmark.h>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "snap/bispectrum.hpp"
#include "snap/testsnap.hpp"

namespace {

using namespace ember;
using namespace ember::snap;

struct Workload {
  SnapParams params;
  std::vector<Vec3> rij;
  std::vector<double> beta;
};

Workload make_workload(int twojmax, int nnbor = 26) {
  Workload w;
  w.params.twojmax = twojmax;
  w.params.rcut = 4.7;
  Rng rng(7);
  while (static_cast<int>(w.rij.size()) < nnbor) {
    Vec3 r{rng.uniform(-4.7, 4.7), rng.uniform(-4.7, 4.7),
           rng.uniform(-4.7, 4.7)};
    if (r.norm() > 0.7 && r.norm() < 4.6) w.rij.push_back(r);
  }
  w.beta.resize(SnapIndex(twojmax).num_b());
  for (auto& b : w.beta) b = rng.uniform(-1, 1);
  return w;
}

void BM_ComputeUi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  for (auto _ : state) {
    bi.compute_ui(w.rij, {});
    benchmark::DoNotOptimize(bi.utot().data());
  }
}
BENCHMARK(BM_ComputeUi)->Arg(4)->Arg(8)->Arg(14);

void BM_ComputeZi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  for (auto _ : state) {
    bi.compute_zi();
    benchmark::DoNotOptimize(bi.zlist().data());
  }
}
BENCHMARK(BM_ComputeZi)->Arg(4)->Arg(8)->Arg(14);

// Per-atom API: one atom on lane 0 of the yi kernel, the other lanes'
// coefficients zero (the trainer's and the tests' entry point).
void BM_ComputeYi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  for (auto _ : state) {
    bi.compute_yi(w.beta);
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ComputeYi)->Arg(4)->Arg(8)->Arg(14);

// The production yi stage: one yi_block over a full block of atoms, one
// per lane of the dispatched table (EMBER_SIMD lowers it). Items are
// atoms, so 1 / items_per_second is the per-atom yi time to set against
// BM_ComputeYi.
void BM_YiBlock(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  const int lanes = bi.lane_width();
  const auto& triples = bi.index().z_triples();
  aligned_vector<double> coeff(triples.size() * lanes);
  for (int l = 0; l < lanes; ++l) {
    bi.compute_ui(w.rij, {}, l);
    for (std::size_t t = 0; t < triples.size(); ++t) {
      coeff[t * lanes + l] = w.beta[triples[t].idxb] * triples[t].beta_scale;
    }
  }
  for (auto _ : state) {
    bi.compute_yi_block(coeff);
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * lanes);
  state.counters["lanes"] = lanes;
}
BENCHMARK(BM_YiBlock)->Arg(8)->Arg(14);

// The production dei stage on one full neighbor block: an atom with
// exactly one lane's worth of neighbors, so each iteration is one
// dei_block call (the reverse sweep) plus its packing. Items are
// neighbors, so 1 / items_per_second is the per-neighbor dei time.
void BM_DeiBlock(benchmark::State& state) {
  const int lanes = simd::lane_width(simd::choose_isa());
  const auto w = make_workload(static_cast<int>(state.range(0)), lanes);
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  bi.compute_yi(w.beta);
  std::vector<Vec3> de(w.rij.size());
  for (auto _ : state) {
    bi.compute_deidrj_all(de);
    benchmark::DoNotOptimize(de.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * lanes);
  state.counters["lanes"] = lanes;
}
BENCHMARK(BM_DeiBlock)->Arg(8)->Arg(14);

// Whole-atom force evaluation, Listing 5 vs Listing 1. The adjoint row
// runs the stage sequence SnapPotential runs, on the dispatched kernel
// table (EMBER_SIMD lowers it).
void BM_AtomAdjoint(benchmark::State& state) {
  const auto w = make_workload(8);
  Bispectrum bi(w.params);
  std::vector<Vec3> de(w.rij.size());
  for (auto _ : state) {
    bi.compute_ui(w.rij, {});
    bi.compute_yi(w.beta);
    bi.compute_deidrj_all(de);
    Vec3 f;
    for (const Vec3& d : de) f += d;
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_AtomAdjoint);

// The Listing-1 row: TestSNAP's V0 baseline (Z stored, per-neighbor dB)
// on the same 2J and neighbor count, one atom per run.
void BM_AtomBaseline(benchmark::State& state) {
  const auto w = make_workload(8);
  TestSnap ts(w.params, 1, static_cast<int>(w.rij.size()));
  for (auto _ : state) {
    ts.run(TestSnapVariant::V0_Baseline);
    benchmark::DoNotOptimize(ts.forces().data());
  }
}
BENCHMARK(BM_AtomBaseline);

}  // namespace

BENCHMARK_MAIN();
