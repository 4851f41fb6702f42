#pragma once

// TestSNAP: the standalone kernel-optimization study.
//
// The companion paper (Gayatri et al., arXiv:2011.12875, summarized in the
// deck and underpinning Table I / Figs. 2-3) built a proxy app to iterate
// on the SNAP force kernel outside of full LAMMPS. This is the CPU
// analogue: eight variants of the same force computation, each layering
// one optimization of the paper's narrative onto the previous:
//
//   V0 Baseline    Listing-1 order; jagged per-j containers allocated
//                  inside the atom loop; Z stored (O(J^5)); per-neighbor
//                  dB (O(J^5) work each).
//   V1 Staged      kernel decomposition (Listing 2): per-stage sweeps over
//                  an atom batch with pre-allocated jagged storage.
//   V2 Flattened   jagged arrays -> flat offset-indexed buffers.
//   V3 Adjoint     the §IV refactorization: Y instead of Z/dB; O(J^3)
//                  storage, O(J^3) per-neighbor force work.
//   V4 Fused       dU recursion fused with the Y contraction (no dU
//                  store; the paper's kernel-fusion step).
//   V5 HalfMb      conjugation symmetry halves the U/dU column range in
//                  the contraction ("symmetrized layouts").
//   V6 SplitSoA    split re/im arrays in the hot recursion (the paper's
//                  data-layout/AoSoA step, in its CPU form).
//   V7 CachedCk    Cayley-Klein mapping cached per neighbor across the
//                  accumulation and force passes (redundant-work removal).
//
// Every variant produces identical per-atom force sums (pinned by tests);
// run() reports the grind time in the paper's figure of merit.

#include <memory>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/bispectrum.hpp"

namespace ember::snap {

enum class TestSnapVariant {
  V0_Baseline,
  V1_Staged,
  V2_Flattened,
  V3_Adjoint,
  V4_Fused,
  V5_HalfMb,
  V6_SplitSoA,
  V7_CachedCk,
};

inline constexpr TestSnapVariant kAllTestSnapVariants[] = {
    TestSnapVariant::V0_Baseline, TestSnapVariant::V1_Staged,
    TestSnapVariant::V2_Flattened, TestSnapVariant::V3_Adjoint,
    TestSnapVariant::V4_Fused,     TestSnapVariant::V5_HalfMb,
    TestSnapVariant::V6_SplitSoA,  TestSnapVariant::V7_CachedCk,
};

const char* to_string(TestSnapVariant v);

// Listing-1 reference for one neighborhood: de[k] = dE_i/dr_k =
// sum_l beta[l] dB_l/dr_k through the full-range U -> Z -> dU -> dB
// pipeline of V2, with per-neighbor weights wj (empty: all 1) and any
// coefficients, a quadratic model's beta_eff included. It shares only the
// Cayley-Klein mapping and the CG tables with Bispectrum (no recursion,
// Z/Y sweep or contraction), so tests use it as the parity oracle for the
// adjoint kernel and for the trainer's force rows (beta = e_l).
std::vector<Vec3> listing1_deidrj(const SnapParams& params,
                                  std::span<const Vec3> rij,
                                  std::span<const double> wj,
                                  std::span<const double> beta);

class TestSnap {
 public:
  // Synthetic workload matching the companion paper's setup: natoms
  // neighborhoods of nnbor random neighbors each, random coefficients.
  TestSnap(const SnapParams& params, int natoms, int nnbor,
           std::uint64_t seed = 2021);

  [[nodiscard]] const SnapParams& params() const { return params_; }
  [[nodiscard]] int natoms() const { return natoms_; }
  [[nodiscard]] int nnbor() const { return nnbor_; }
  // Neighborhood i (nnbor displacements) and the coefficients every
  // variant contracts with; read-only views for parity checks.
  [[nodiscard]] std::span<const Vec3> neighborhood(int i) const {
    return {rij_.data() + static_cast<std::size_t>(i) * nnbor_,
            static_cast<std::size_t>(nnbor_)};
  }
  [[nodiscard]] std::span<const double> beta() const { return beta_; }

  // Execute one full force computation with the given variant; returns
  // elapsed seconds. Fills forces() with the per-atom sum of dE_i/dr_k.
  // A threaded policy distributes the atom loop of V0 and V3-V7 over a
  // persistent pool (per-thread scratch, bitwise-identical forces); the
  // staged V1/V2 variants share batch buffers and always run serially.
  double run(TestSnapVariant variant, ExecutionPolicy policy = {});

  // Grind time [s / atom-step] over `repeats` runs (best of).
  double grind_time(TestSnapVariant variant, int repeats = 3,
                    ExecutionPolicy policy = {});

  [[nodiscard]] std::span<const Vec3> forces() const { return forces_; }

 private:
  // Each run_* computes forces_[i] for i in [begin, end) with
  // function-local scratch, so atom blocks thread trivially.
  void run_baseline(int begin, int end);              // V0
  void run_staged(bool flattened);                    // V1 / V2 (serial)
  void run_adjoint(int begin, int end);               // V3
  void run_fused(int level, int begin, int end);      // V4..V7 (0..3)

  SnapParams params_;
  SnapIndex idx_;
  int natoms_;
  int nnbor_;
  std::vector<double> rootpq_;
  std::vector<double> beta_;
  std::vector<Vec3> rij_;      // natoms x nnbor displacements
  std::vector<Vec3> forces_;   // per-atom force sums

  // scratch reused across runs (variants that pre-allocate)
  std::vector<Cplx> flat_u_;
  std::vector<Cplx> flat_z_;
  std::vector<Cplx> flat_y_;

  // worker pool for threaded runs (created on first non-serial policy)
  std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace ember::snap
