#pragma once

// SNAP as an MD PairPotential.
//
// Wraps the Bispectrum kernel over a neighbor list and runs the paper's
// adjoint force path (Listing 5): compute_ui -> compute_yi -> the blocked
// per-neighbor dE pass, on whichever SIMD backend Bispectrum dispatched to
// (EMBER_SIMD can lower it). The Listing-1 baseline (Z storage and
// per-neighbor dB) lives in TestSNAP V0 and in the tests' reference
// loops, not here.

#include <memory>
#include <string>
#include <vector>

#include "md/potential.hpp"
#include "snap/bispectrum.hpp"

namespace ember::snap {

// A trained SNAP model:
//   linear    E_i = beta0 + beta . B(i)
//   quadratic E_i = beta0 + beta . B(i) + 1/2 B(i)^T alpha B(i)
// where alpha is symmetric (stored dense, row-major num_b x num_b). The
// quadratic extension follows the LAMMPS quadraticflag formulation: the
// force path reuses the adjoint machinery with per-atom effective
// coefficients beta_eff(i) = beta + alpha B(i).
struct SnapModel {
  SnapParams params;
  double beta0 = 0.0;
  std::vector<double> beta;
  std::vector<double> alpha;  // empty = linear model

  [[nodiscard]] bool quadratic() const { return !alpha.empty(); }
  // beta + alpha * B for one atom's descriptors, written into `out`
  // (resized to num_b). Takes caller scratch so the per-atom force loop
  // performs no heap allocation.
  void effective_beta(std::span<const double> b,
                      std::vector<double>& out) const;
  // Energy of one atom given its descriptors.
  [[nodiscard]] double site_energy(std::span<const double> b) const;

  void save(const std::string& path) const;
  // Parses the `key value` text format written by save. An unknown key, a
  // value that does not parse, or a short coefficient block throws
  // ember::Error naming path:line. A legacy `kernel naive|symmetric|simd`
  // line is accepted and ignored.
  static SnapModel load(const std::string& path);
};

class SnapPotential final : public md::PairPotential {
 public:
  explicit SnapPotential(SnapModel model);

  [[nodiscard]] double cutoff() const override {
    return model_.params.rcut;
  }
  [[nodiscard]] const char* name() const override { return "snap"; }

  // Threaded over atom blocks: worker 0 reuses the member kernel/scratch
  // (the exact serial path), workers >= 1 get a private Bispectrum +
  // buffers from the context's per-thread cache — the per-atom U/Y/dU
  // arrays are allocated once per thread, never shared.
  using md::PairPotential::compute;
  md::EnergyVirial compute(const md::ComputeContext& ctx, md::System& sys,
                           const md::NeighborList& nl) override;

  [[nodiscard]] const SnapModel& model() const { return model_; }
  [[nodiscard]] Bispectrum& kernel() { return bi_; }

  // FLOPs executed by the last compute() call (analytic estimate).
  [[nodiscard]] double last_flops() const { return last_flops_; }

 private:
  SnapModel model_;
  Bispectrum bi_;
  double last_flops_ = 0.0;
  // Linear models: per-triple adjoint coefficients beta[idxb] * beta_scale,
  // folded once at construction so the per-atom loop skips the fold (the
  // quadratic path cannot hoist it — beta_eff depends on the atom's B).
  std::vector<double> y_coeff_;
  // per-call scratch (kept to avoid reallocation)
  std::vector<Vec3> rij_;
  std::vector<int> jlist_;
  std::vector<double> beta_eff_;
  std::vector<Vec3> de_;  // blocked dE_i/dr_k results
};

}  // namespace ember::snap
