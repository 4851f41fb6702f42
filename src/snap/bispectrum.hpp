#pragma once

// SNAP bispectrum engine for one thread: per-atom stages and atom
// blocks.
//
// This class owns the flattened U/Z/Y/B scratch arrays and exposes the
// computation stages as the paper's Listings 1/5 name them.
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
// compute_ui, and U/Y live in split re/im planes (SoA). The force pass
// runs no dU recursion: Y is linear in U, so one reverse (adjoint) sweep
// of the cached U recursion gives dE with respect to the Cayley-Klein
// parameters a, b, and the three Cartesian directions follow from
// da/dr, db/dr (DESIGN.md section 8). On top of that ("V8"), the
// stages run through the width-generic kernels of src/snap/simd/ at the
// dispatched lane width W (1 for the scalar table, 4 for AVX2, 8 for
// AVX-512):
//
//   ui, dei   one *neighbor* per lane, per atom;
//   yi        one *atom* per lane: an instance holds W atom lanes, each
//             with its own full-range U lane, Y lane and cached neighbor
//             state, and one yi_block call contracts the flattened
//             coupling list (SnapIndex::yi_list) for all W atoms at once.
//
// SnapPotential fills the lanes of a block (compute_ui(rij, wj, lane)),
// runs compute_yi_block once, then the per-lane energy and dei pass. The
// per-atom API (compute_yi, lane 0 by default) is the same kernel with
// the other lanes' coefficients zero. The table is chosen at
// construction by a runtime CPUID probe clamped by
// EMBER_SIMD=avx512|avx2|scalar; non-x86 builds and EMBER_SIMD=scalar run
// the width-1 table.
//
// The full-range utot of the last compute_ui feeds the one stage pair
// that needs the descriptors themselves:
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
// The index tables (SnapIndex, incl. the yi list) are immutable and can
// be shared by every instance of one potential; the rest is per-instance
// scratch, reused across atoms. Instances are NOT thread-safe; create one
// per thread.

#include <memory>
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

  // A fresh instance (own scratch) with this one's parameters, kernel
  // table and bzero, sharing its read-only SnapIndex: one per worker
  // thread of a potential. Reads only state fixed at construction, so it
  // may run while this instance computes on another thread.
  [[nodiscard]] Bispectrum sibling() const;

  [[nodiscard]] const SnapParams& params() const { return params_; }
  [[nodiscard]] const SnapIndex& index() const { return *idx_; }
  [[nodiscard]] int num_b() const { return idx_->num_b(); }
  // Atom lanes per yi block (the dispatched table's width).
  [[nodiscard]] int lane_width() const { return simd_ops_->width; }

  // ---- stage kernels ----

  // Accumulate Utot over neighbors (positions relative to the central
  // atom, all with |rij| < rcut) plus the self term into utot() and into
  // atom lane `lane`'s U planes. Also fills that lane's per-neighbor
  // Cayley-Klein and bare-U caches consumed by the force pass.
  void compute_ui(std::span<const Vec3> rij, std::span<const double> wj,
                  int lane = 0);

  // Zero lane `lane`'s U planes: a padded lane of a short block, whose Y
  // then comes out zero.
  void clear_lane(int lane);

  // Compute and store every coupled Z matrix (O(J^5) memory) from the
  // utot() of the last compute_ui; B only.
  void compute_zi();

  // Bispectrum components B_l for the canonical triples; requires
  // compute_zi. Subtracts bzero when enabled.
  void compute_bi();

  // Per-atom adjoint on lane 0: Y = sum beta * Z on the fly (O(J^3)
  // memory); beta.size() must equal num_b().
  void compute_yi(std::span<const double> beta);

  // Block adjoint: Y of every atom lane in one yi_block call, from
  // lane-interleaved per-triple coefficients
  // coeff_planes[t * lane_width() + l] = beta_l[t.idxb] * t.beta_scale
  // (size z_triples().size() * lane_width(), 64-byte aligned).
  void compute_yi_block(std::span<const double> coeff_planes);

  // Number of neighbors cached by the last compute_ui on `lane`.
  [[nodiscard]] int cached_neighbors(int lane = 0) const {
    require_lane(lane);
    return lanes_[lane].nnbor;
  }

  // Blocked dE pass over every neighbor cached by the last compute_ui on
  // `lane`: de[k] = dE_i/dr_k, against that lane's Y (read in place).
  // Requires a yi stage. Each block of lane_width neighbors runs one
  // dei_block call: the reverse sweep of the U recursion seeded with Y.
  void compute_deidrj_all(std::span<Vec3> de, int lane = 0);

  // ISA this instance dispatched to at construction.
  [[nodiscard]] simd::SimdIsa simd_isa() const { return simd_isa_; }

  // ---- results ----
  [[nodiscard]] std::span<const double> blist() const { return blist_; }
  [[nodiscard]] std::span<const Cplx> utot() const { return utot_; }
  [[nodiscard]] std::span<const Cplx> zlist() const { return zlist_; }
  // Full-range Y of `lane` (weights unfolded, dropped elements restored
  // through the conjugation mirror); a copy, for tests and benches.
  [[nodiscard]] std::vector<Cplx> ylist(int lane = 0) const;

  // Energy of the atom given linear SNAP coefficients (beta0 + beta . B);
  // requires compute_bi.
  [[nodiscard]] double energy(double beta0,
                              std::span<const double> beta) const;

  // Energy of `lane`'s atom via the adjoint identity
  // sum_j Y_j : conj(U_j) = 3 sum beta.B (every B component appears
  // through its three U-slot dependency paths), summed over the
  // weight-folded half range; requires a yi stage with the same beta.
  // Lets the adjoint path skip Z storage entirely. beta is needed only
  // for the bzero correction.
  [[nodiscard]] double energy_from_yi(double beta0,
                                      std::span<const double> beta,
                                      int lane = 0) const;

  // ---- analytic FLOP estimates (double-precision mul+add counted as 2) --
  // The adjoint counts reflect the work the production kernel executes
  // per atom: the halved column range, the flattened yi list (dropped
  // zero-CG rows and padded lanes not counted), the reverse sweep of the
  // force pass (mapping and U recursion cached by compute_ui) and the
  // mirror expansion, so reported FLOP rates stay honest.
  [[nodiscard]] double flops_ui(int nnbor) const;
  [[nodiscard]] double flops_yi() const;
  [[nodiscard]] double flops_dei() const;  // per neighbor, reverse sweep
  // Total per-atom FLOPs of the adjoint path with nnbor neighbors.
  [[nodiscard]] double flops_adjoint_atom(int nnbor) const;

 private:
  struct SiblingTag {};
  Bispectrum(const Bispectrum& proto, SiblingTag);
  // Sizes the per-instance scratch (everything but the shared index).
  void allocate();
  // Throws unless 0 <= lane < lane_width().
  void require_lane(int lane) const;

  // Per-atom-lane neighbor state cached by compute_ui for the force pass.
  struct LaneCache {
    std::vector<CayleyKlein> ck;   // per-neighbor mapping (V7)
    std::vector<double> wj;        // per-neighbor weights
    aligned_vector<double> ure;    // bare U cache (V7):
    aligned_vector<double> uim;    //   nblock x nh x width interleaved
    int nnbor = 0;
  };

  // Pack neighbor lane l of the block starting at neighbor k0 of `lc`
  // into simd_ck_ / simd_wfc_ (padded lanes repeat the last active
  // neighbor, weight 0).
  void pack_ck_lane(const LaneCache& lc, int k0, int lane, int width);

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
  std::shared_ptr<const SnapIndex> idx_;
  std::vector<double> rootpq_;  // rootpq_[p*(tj+1)+q] = sqrt(p/q)

  std::vector<Cplx> utot_;
  std::vector<Cplx> zlist_;
  std::vector<double> blist_;
  std::vector<double> bzero_;
  bool have_z_ = false;

  // ---- adjoint-kernel state (half layout, SoA planes) ----
  // All planes are 64-byte aligned (aligned_vector) so the V8 kernels can
  // issue aligned vector loads.
  aligned_vector<double> utot_half_re_; // half-range accumulation (V5/V6)
  aligned_vector<double> utot_half_im_;

  // ---- atom lanes (yi_block) ----
  std::vector<LaneCache> lanes_;         // one per atom lane
  aligned_vector<double> lane_u_re_;     // full-range U, u_total x width
  aligned_vector<double> lane_u_im_;
  aligned_vector<double> lane_y_re_;     // weighted half Y, nh x width
  aligned_vector<double> lane_y_im_;
  aligned_vector<double> yi_coeff_;      // per-atom API coefficient planes
                                         //   (lane 0 only; others zero)

  // ---- kernel-table state (V8) ----
  simd::SimdIsa simd_isa_ = simd::SimdIsa::Scalar;
  const simd::SimdOps* simd_ops_ = nullptr;  // ops_for(simd_isa_)
  aligned_vector<double> simd_ck_;       // kCkSlots x width lane-packed CK
  aligned_vector<double> simd_wfc_;      // wj * fc per lane (0 when padded)
  aligned_vector<double> simd_acc_re_;   // lane-interleaved Utot accum
  aligned_vector<double> simd_acc_im_;
  aligned_vector<double> simd_x_re_;     // lane-interleaved adjoint X
  aligned_vector<double> simd_x_im_;     //   scratch of dei_block
  aligned_vector<double> simd_out_;      // 3 x width force lanes
};

}  // namespace ember::snap
