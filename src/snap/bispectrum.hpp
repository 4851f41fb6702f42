#pragma once

// Per-atom SNAP bispectrum engine.
//
// This class owns the flattened U/Z/Y/B scratch arrays for one atom and
// exposes the computation stages as the paper's Listings 1/5 name them.
//
// The production force path is the adjoint kernel (Listing 5, the
// paper's §IV refactorization):
//
//   compute_ui -> compute_yi(beta) -> compute_deidrj_all
//
// Y storage is O(J^3) and force work is O(J^3) per neighbor. It runs the
// TestSNAP V5-V7 layout: only columns with 2*mb <= j are computed (the
// rest follow from U[j,ma,mb] = (-1)^(ma+mb) conj(U[j,j-ma,j-mb])), each
// neighbor's bare U list and Cayley-Klein mapping are cached during
// compute_ui so the force pass runs the derivative-only recursion, and
// U/Y/dU live in split re/im planes (SoA). On top of that ("V8"), ui and
// the dU + Y : conj(dU) pass run over blocks of neighbors through the
// width-generic kernels of src/snap/simd/, one neighbor per lane (1 for
// the scalar table, 4 for AVX2, 8 for AVX-512). The table is chosen at
// construction by a runtime CPUID probe clamped by
// EMBER_SIMD=avx512|avx2|scalar; non-x86 builds and EMBER_SIMD=scalar run
// the width-1 table.
//
// Full-range utot/ylist mirrors are kept: ylist feeds energy_from_yi,
// and utot feeds the one stage pair that needs the descriptors themselves:
//
//   compute_zi -> compute_bi                  descriptors B (Listing 1)
//
// Quadratic models (beta_eff = beta + alpha B) and the FitSNAP-lite
// energy rows (src/fit/trainer.cpp) read B. Force rows need no second
// path: dB_l/dr_k is the adjoint with beta = e_l, so the trainer runs
// compute_yi with a unit coefficient and compute_deidrj_all per column.
// The Listing-1 U -> Z -> dU -> dB pipeline lives only in TestSNAP
// (src/snap/testsnap.hpp), which tests use, with closed-form Wigner U,
// as the parity reference for this kernel (<= 1e-12 per force
// component, tests/snap/).
//
// The same instance can be reused across atoms (buffers are reset by
// compute_ui). Instances are NOT thread-safe; create one per thread.

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/vec3.hpp"
#include "snap/cplx.hpp"
#include "snap/indexing.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {

struct SnapParams {
  int twojmax = 8;        // 2J; paper uses 8 (55 components) and 14 (204)
  double rcut = 4.7;      // neighbor cutoff [A]
  double rmin0 = 0.0;     // inner radius of the angular mapping [A]
  double rfac0 = 0.99363; // fraction of pi covered at r = rcut
  double wself = 1.0;     // self-contribution weight
  bool switch_flag = true; // apply the smooth cutoff fc(r)
  bool bzero_flag = false; // subtract the isolated-atom bispectrum
};

class Bispectrum {
 public:
  explicit Bispectrum(const SnapParams& params);

  [[nodiscard]] const SnapParams& params() const { return params_; }
  [[nodiscard]] const SnapIndex& index() const { return idx_; }
  [[nodiscard]] int num_b() const { return idx_.num_b(); }

  // ---- stage kernels ----

  // Accumulate Utot over neighbors (positions relative to the central
  // atom, all with |rij| < rcut) plus the self term. Also fills the
  // per-neighbor Cayley-Klein and bare-U caches consumed by the force
  // pass.
  void compute_ui(std::span<const Vec3> rij, std::span<const double> wj);

  // Compute and store every coupled Z matrix (O(J^5) memory); B only.
  void compute_zi();

  // Bispectrum components B_l for the canonical triples; requires
  // compute_zi. Subtracts bzero when enabled.
  void compute_bi();

  // Adjoint: accumulate Y = sum beta * Z on the fly (O(J^3) memory);
  // beta.size() must equal num_b().
  void compute_yi(std::span<const double> beta);

  // Same accumulation from precomputed per-triple coefficients
  // coeffs[t] = beta[t.idxb] * t.beta_scale (coeffs.size() must equal
  // z_triples().size()). Lets linear models hoist the coefficient fold
  // out of the per-atom loop entirely.
  void compute_yi_coeffs(std::span<const double> coeffs);

  // Number of neighbors cached by the last compute_ui.
  [[nodiscard]] int cached_neighbors() const { return nnbor_cached_; }

  // Blocked dU + dE pass over every neighbor cached by the last
  // compute_ui: de[k] = dE_i/dr_k. Requires compute_yi/compute_yi_coeffs.
  // Each block of lane_width neighbors runs the derivative recursion and
  // the fused Y : conj(dU) contraction in one dei_block call.
  void compute_deidrj_all(std::span<Vec3> de);

  // ISA this instance dispatched to at construction.
  [[nodiscard]] simd::SimdIsa simd_isa() const { return simd_isa_; }

  // ---- results ----
  [[nodiscard]] std::span<const double> blist() const { return blist_; }
  [[nodiscard]] std::span<const Cplx> utot() const { return utot_; }
  [[nodiscard]] std::span<const Cplx> ylist() const { return ylist_; }
  [[nodiscard]] std::span<const Cplx> zlist() const { return zlist_; }

  // Energy of the atom given linear SNAP coefficients (beta0 + beta . B);
  // requires compute_bi.
  [[nodiscard]] double energy(double beta0,
                              std::span<const double> beta) const;

  // Energy via the adjoint identity sum_j Y_j : conj(U_j) = 3 sum beta.B
  // (every B component appears through its three U-slot dependency paths);
  // requires compute_yi with the same beta. Lets the adjoint path skip Z
  // storage entirely. beta is needed only for the bzero correction.
  [[nodiscard]] double energy_from_yi(double beta0,
                                      std::span<const double> beta) const;

  // ---- analytic FLOP estimates (double-precision mul+add counted as 2) --
  // The adjoint counts reflect the work the production kernel executes:
  // the halved column range, the cached (recursion-free) dU pass with the
  // fused contraction, and the mirror expansions, so reported FLOP rates
  // stay honest.
  [[nodiscard]] double flops_ui(int nnbor) const;
  [[nodiscard]] double flops_yi() const;
  [[nodiscard]] double flops_duidrj() const;   // per neighbor, dU recursion
  [[nodiscard]] double flops_deidrj() const;   // per neighbor, fused dot
  // Total per-atom FLOPs of the adjoint path with nnbor neighbors.
  [[nodiscard]] double flops_adjoint_atom(int nnbor) const;

 private:
  // Pack lane l of the block starting at neighbor k0 into simd_ck_ /
  // simd_wfc_ (padded lanes repeat the last active neighbor, weight 0).
  void pack_ck_lane(int k0, int lane, int width);

  // Expand a half-layout SoA plane pair into a full-range Cplx array via
  // the conjugation mirror.
  void mirror_half_to_full(const double* hre, const double* him,
                           std::vector<Cplx>& full) const;

  // z-matrix element (row ma, col mb) of coupling triple t, from utot_,
  // through the unit-stride aligned CG blocks (any ma, mb in 0..t.j).
  [[nodiscard]] Cplx z_element_aligned(const ZTriple& t, int ma,
                                       int mb) const;

  // compute_bi with an explicit bzero choice; the constructor uses it to
  // measure the isolated-atom reference without mutating params_.
  void compute_bi_impl(bool subtract_bzero);

  const SnapParams params_;
  SnapIndex idx_;
  std::vector<double> rootpq_;  // rootpq_[p*(tj+1)+q] = sqrt(p/q)

  std::vector<Cplx> utot_;
  std::vector<Cplx> zlist_;
  std::vector<Cplx> ylist_;
  std::vector<double> blist_;
  std::vector<double> bzero_;
  bool have_z_ = false;

  // ---- adjoint-kernel state (half layout, SoA planes) ----
  // All planes are 64-byte aligned (aligned_vector) so the V8 kernels can
  // issue aligned vector loads.
  std::vector<CayleyKlein> ck_cache_;   // per-neighbor mapping (V7)
  std::vector<double> wj_cache_;        // per-neighbor weights
  aligned_vector<double> ucache_re_;    // bare U cache (V7):
  aligned_vector<double> ucache_im_;    //   nblock x nh x width interleaved
  aligned_vector<double> utot_half_re_; // half-range accumulation (V5/V6)
  aligned_vector<double> utot_half_im_;
  aligned_vector<double> y_half_re_;    // half-range adjoint (V5/V6)
  aligned_vector<double> y_half_im_;
  std::vector<double> yi_coeff_scratch_;  // per-triple beta fold
  int nnbor_cached_ = 0;

  // ---- kernel-table state (V8) ----
  simd::SimdIsa simd_isa_ = simd::SimdIsa::Scalar;
  const simd::SimdOps* simd_ops_ = nullptr;  // ops_for(simd_isa_)
  aligned_vector<double> simd_ck_;       // kCkSlots x width lane-packed CK
  aligned_vector<double> simd_wfc_;      // wj * fc per lane (0 when padded)
  aligned_vector<double> simd_acc_re_;   // lane-interleaved Utot accum
  aligned_vector<double> simd_acc_im_;
  aligned_vector<double> simd_du_re_[3]; // lane-interleaved dU scratch
  aligned_vector<double> simd_du_im_[3];
  aligned_vector<double> simd_out_;      // 3 x width force lanes
};

}  // namespace ember::snap
