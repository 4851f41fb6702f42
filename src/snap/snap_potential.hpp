#pragma once

// SNAP as an MD PairPotential.
//
// Wraps the Bispectrum kernel over a neighbor list and runs the paper's
// adjoint force path (Listing 5) in blocks of W atoms, W the lane width
// of whichever SIMD backend Bispectrum dispatched to (EMBER_SIMD can
// lower it): compute_ui per atom into its lane, one compute_yi_block per
// block, then the blocked per-neighbor dE pass per atom from its lane of
// Y. The Listing-1 baseline (Z storage and per-neighbor dB) lives in
// TestSNAP V0 and in the tests' reference loops, not here.

#include <memory>
#include <string>
#include <vector>

#include "common/aligned.hpp"
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

  // Threaded over atom chunks, each run in blocks of W atoms: worker 0
  // uses the member Worker (the exact serial path), workers >= 1 get a
  // private Worker from the context's per-thread cache, so the per-atom
  // U/Y/adjoint arrays are allocated once per thread, never shared. All
  // workers share one SnapIndex (and its yi list) read-only. An atom's
  // dE and site energy do not depend on its lane or its block-mates.
  using md::PairPotential::compute;
  md::EnergyVirial compute(const md::ComputeContext& ctx, md::System& sys,
                           const md::NeighborList& nl) override;

  [[nodiscard]] const SnapModel& model() const { return model_; }
  [[nodiscard]] Bispectrum& kernel() { return w0_.bi; }

  // FLOPs executed by the last compute() call (analytic estimate).
  [[nodiscard]] double last_flops() const { return last_flops_; }

 private:
  // One thread's kernel plus the per-lane scratch of an atom block.
  struct Worker {
    Worker(const SnapModel& model, Bispectrum kernel);
    Bispectrum bi;
    std::vector<std::vector<Vec3>> rij;  // per lane
    std::vector<std::vector<int>> jlist;
    std::vector<double> beta_eff;
    aligned_vector<double> coeff;  // quadratic: per-lane coefficient planes
    std::vector<Vec3> de;          // blocked dE_i/dr_k results
  };

  // Runs atoms [begin, end) in blocks of the lane width.
  void compute_range(Worker& wk, const md::System& sys,
                     const md::NeighborList& nl, int begin, int end,
                     std::span<Vec3> f, md::ComputeContext::Scratch& s) const;

  SnapModel model_;
  Worker w0_;
  double last_flops_ = 0.0;
  // Linear models: per-triple adjoint coefficients beta[idxb] * beta_scale
  // on every lane, folded once at construction and shared read-only by
  // all workers (the quadratic path cannot hoist it — beta_eff depends on
  // the atom's B, so each worker writes its atoms' lanes).
  aligned_vector<double> y_coeff_;
};

}  // namespace ember::snap
