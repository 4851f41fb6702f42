#pragma once

// FitSNAP-lite: train linear SNAP coefficients against a reference
// ("oracle") potential.
//
// The paper's carbon SNAP was trained on DFT data; here the Tersoff carbon
// potential plays the oracle's role (same code path, different labels —
// see DESIGN.md §2). The fit is a weighted ridge regression over energies
// and force components:
//
//   E_cfg             = N beta0 + sum_l beta_l (sum_i B_l(i))
//   F_(k,alpha)       = - sum_l beta_l (sum_i dB_l(i)/dr_(k,alpha))
//
// assembled with the production adjoint kernel (dB_l/dr_k is dE_i/dr_k
// with beta = e_l: one unit-coefficient compute_yi plus one
// compute_deidrj_all per column) and solved through the normal equations
// with a Cholesky factorization. Configurations must hold at least one
// atom.

#include <memory>
#include <vector>

#include "md/potential.hpp"
#include "md/system.hpp"
#include "snap/snap_potential.hpp"

namespace ember::fit {

// One labelled configuration.
struct TrainingConfig {
  md::System system;
  double energy = 0.0;            // oracle total energy [eV]
  std::vector<Vec3> forces;       // oracle forces [eV/A]
};

struct FitOptions {
  double energy_weight = 100.0;  // per-atom energy row weight
  double force_weight = 1.0;
  double ridge = 1e-8;
};

struct FitMetrics {
  double energy_rmse_per_atom = 0.0;  // [eV/atom]
  double force_rmse = 0.0;            // [eV/A] per component
  double force_rms_label = 0.0;       // RMS of the oracle force components
  int n_configs = 0;
  int n_force_rows = 0;
};

class Trainer {
 public:
  Trainer(snap::SnapParams snap_params, FitOptions options = {});

  // Label a configuration with the oracle and add it to the training set.
  void add_config(md::System sys, md::PairPotential& oracle);

  // Add a pre-labelled configuration.
  void add_labelled(TrainingConfig cfg);

  [[nodiscard]] int num_configs() const {
    return static_cast<int>(configs_.size());
  }

  // Solve for the coefficients; returns the trained model.
  [[nodiscard]] snap::SnapModel fit();

  // Evaluate a model on this trainer's configurations (use a second
  // Trainer holding held-out configs for test metrics).
  [[nodiscard]] FitMetrics evaluate(const snap::SnapModel& model);

 private:
  // Rows of the design matrix for one config: first the energy row, then
  // 3N force rows. Column 0 is beta0 (energy rows only).
  void assemble_rows(const TrainingConfig& cfg, std::vector<double>& rows,
                     std::vector<double>& rhs) const;

  snap::SnapParams snap_params_;
  FitOptions options_;
  std::vector<TrainingConfig> configs_;
};

// Convenience: build a standard carbon training set from the oracle —
// strained/perturbed diamond cells, BC8 cells, compressed random packings
// and short high-T Langevin snapshots.
std::vector<md::System> standard_carbon_configs(int count, std::uint64_t seed);

}  // namespace ember::fit
