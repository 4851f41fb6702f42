#include "trainer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "fit/linalg.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/bispectrum.hpp"

namespace ember::fit {

Trainer::Trainer(snap::SnapParams snap_params, FitOptions options)
    : snap_params_(snap_params), options_(options) {}

void Trainer::add_config(md::System sys, md::PairPotential& oracle) {
  EMBER_REQUIRE(sys.nlocal() > 0, "training configuration has no atoms");
  TrainingConfig cfg;
  md::NeighborList nl(oracle.cutoff(), 0.0);
  nl.build(sys);
  sys.zero_forces();
  cfg.energy = oracle.compute(sys, nl).energy;
  cfg.forces.assign(sys.f.begin(), sys.f.begin() + sys.nlocal());
  cfg.system = std::move(sys);
  configs_.push_back(std::move(cfg));
}

void Trainer::add_labelled(TrainingConfig cfg) {
  EMBER_REQUIRE(cfg.system.nlocal() > 0,
                "training configuration has no atoms");
  EMBER_REQUIRE(static_cast<int>(cfg.forces.size()) == cfg.system.nlocal(),
                "labelled forces must match the atom count");
  configs_.push_back(std::move(cfg));
}

void Trainer::assemble_rows(const TrainingConfig& cfg,
                            std::vector<double>& rows,
                            std::vector<double>& rhs) const {
  snap::Bispectrum bi(snap_params_);
  const int nb = bi.num_b();
  const int ncols = nb + 1;  // beta0 + beta
  const md::System& sys = cfg.system;
  const int n = sys.nlocal();

  rows.assign(static_cast<std::size_t>(1 + 3 * n) * ncols, 0.0);
  rhs.assign(1 + 3 * n, 0.0);

  md::NeighborList nl(snap_params_.rcut, 0.0);
  nl.build(sys);

  double* erow = rows.data();
  erow[0] = n;  // beta0 multiplies the atom count
  const double rc2 = snap_params_.rcut * snap_params_.rcut;

  std::vector<Vec3> rij;
  std::vector<int> jlist;
  std::vector<Vec3> de;
  std::vector<double> unit(nb, 0.0);
  for (int i = 0; i < n; ++i) {
    rij.clear();
    jlist.clear();
    for (const auto& en : nl.neighbors(i)) {
      const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
      if (d.norm2() < rc2) {
        rij.push_back(d);
        jlist.push_back(en.j);
      }
    }
    bi.compute_ui(rij, {});
    bi.compute_zi();
    bi.compute_bi();
    for (int l = 0; l < nb; ++l) erow[1 + l] += bi.blist()[l];

    // Force rows: dB_l(i)/dr_k is the adjoint dE_i/dr_k with beta = e_l,
    // so each column is one unit-coefficient yi plus one blocked force
    // pass. F = -beta . dB, so the design entries carry the minus sign:
    // F_k -= dB(i)/dr_k and F_i += dB(i)/dr_k.
    de.resize(rij.size());
    for (int l = 0; l < nb; ++l) {
      unit[l] = 1.0;
      bi.compute_yi(unit);
      unit[l] = 0.0;
      bi.compute_deidrj_all(de);
      for (std::size_t m = 0; m < rij.size(); ++m) {
        const int k = jlist[m];
        for (int d = 0; d < 3; ++d) {
          rows[(1 + 3 * k + d) * static_cast<std::size_t>(ncols) + 1 + l] -=
              de[m][d];
          rows[(1 + 3 * i + d) * static_cast<std::size_t>(ncols) + 1 + l] +=
              de[m][d];
        }
      }
    }
  }

  rhs[0] = cfg.energy;
  for (int k = 0; k < n; ++k) {
    for (int d = 0; d < 3; ++d) rhs[1 + 3 * k + d] = cfg.forces[k][d];
  }
}

snap::SnapModel Trainer::fit() {
  EMBER_REQUIRE(!configs_.empty(), "no training configurations");
  snap::Bispectrum bi(snap_params_);
  const int ncols = bi.num_b() + 1;

  // Accumulate normal equations A^T W A and A^T W y config by config so
  // the full design matrix never needs to be held at once.
  std::vector<double> ata(static_cast<std::size_t>(ncols) * ncols, 0.0);
  std::vector<double> aty(ncols, 0.0);
  std::vector<double> rows;
  std::vector<double> rhs;

  for (const auto& cfg : configs_) {
    assemble_rows(cfg, rows, rhs);
    const int n = cfg.system.nlocal();
    const int nrows = 1 + 3 * n;
    for (int r = 0; r < nrows; ++r) {
      const double w = r == 0 ? options_.energy_weight / n
                              : options_.force_weight;
      const double* row = rows.data() + r * static_cast<std::size_t>(ncols);
      const double wy = w * rhs[r];
      for (int c = 0; c < ncols; ++c) {
        aty[c] += wy * row[c];
        const double wr = w * row[c];
        for (int c2 = c; c2 < ncols; ++c2) {
          ata[c * static_cast<std::size_t>(ncols) + c2] += wr * row[c2];
        }
      }
    }
  }
  // Symmetrize the upper-triangular accumulation.
  for (int c = 0; c < ncols; ++c) {
    for (int c2 = 0; c2 < c; ++c2) {
      ata[c * static_cast<std::size_t>(ncols) + c2] =
          ata[c2 * static_cast<std::size_t>(ncols) + c];
    }
  }

  const auto coeffs = solve_spd(ata, aty, ncols, options_.ridge);
  snap::SnapModel model;
  model.params = snap_params_;
  model.beta0 = coeffs[0];
  model.beta.assign(coeffs.begin() + 1, coeffs.end());
  return model;
}

FitMetrics Trainer::evaluate(const snap::SnapModel& model) {
  FitMetrics metrics;
  metrics.n_configs = static_cast<int>(configs_.size());
  double e_sq = 0.0;
  double f_sq = 0.0;
  double f_label_sq = 0.0;
  long f_rows = 0;

  snap::SnapPotential pot(model);
  for (auto& cfg : configs_) {
    md::System sys = cfg.system;
    md::NeighborList nl(pot.cutoff(), 0.0);
    nl.build(sys);
    sys.zero_forces();
    const auto ev = pot.compute(sys, nl);
    const int n = sys.nlocal();
    const double de = (ev.energy - cfg.energy) / n;
    e_sq += de * de;
    for (int k = 0; k < n; ++k) {
      for (int d = 0; d < 3; ++d) {
        const double df = sys.f[k][d] - cfg.forces[k][d];
        f_sq += df * df;
        f_label_sq += cfg.forces[k][d] * cfg.forces[k][d];
        ++f_rows;
      }
    }
  }
  metrics.energy_rmse_per_atom =
      metrics.n_configs > 0 ? std::sqrt(e_sq / metrics.n_configs) : 0.0;
  metrics.force_rmse = f_rows > 0 ? std::sqrt(f_sq / f_rows) : 0.0;
  metrics.force_rms_label =
      f_rows > 0 ? std::sqrt(f_label_sq / f_rows) : 0.0;
  metrics.n_force_rows = static_cast<int>(f_rows);
  return metrics;
}

std::vector<md::System> standard_carbon_configs(int count,
                                                std::uint64_t seed) {
  std::vector<md::System> configs;
  Rng rng(seed);
  int made = 0;
  while (made < count) {
    const int pick = made % 4;
    if (pick == 0) {
      // Strained + thermally perturbed diamond.
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Diamond;
      spec.a = 3.567 * rng.uniform(0.86, 1.08);
      spec.nx = spec.ny = spec.nz = 2;
      md::System sys = md::build_lattice(spec, 12.011);
      md::perturb(sys, rng.uniform(0.02, 0.14), rng);
      configs.push_back(std::move(sys));
    } else if (pick == 1) {
      // BC8 at high compression.
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Bc8;
      spec.a = 4.46 * rng.uniform(0.85, 1.0);
      spec.nx = spec.ny = spec.nz = 1;
      md::System sys = md::build_lattice(spec, 12.011);
      md::perturb(sys, rng.uniform(0.02, 0.1), rng);
      configs.push_back(std::move(sys));
    } else if (pick == 2) {
      // Compressed disordered packing (liquid/amorphous-like).
      const double a = rng.uniform(8.0, 10.0);
      md::Box box(a, a, a);
      configs.push_back(
          md::random_packing(box, static_cast<int>(a * a * a * 0.14), 1.25,
                             12.011, rng));
    } else {
      // Simple cubic — an "off-manifold" structure for robustness.
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::SimpleCubic;
      spec.a = rng.uniform(1.7, 2.2);
      spec.nx = spec.ny = spec.nz = 3;
      md::System sys = md::build_lattice(spec, 12.011);
      md::perturb(sys, 0.06, rng);
      configs.push_back(std::move(sys));
    }
    ++made;
  }
  return configs;
}

}  // namespace ember::fit
