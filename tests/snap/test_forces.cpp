// Force-path validation: the production adjoint kernel (compute_yi /
// compute_deidrj_all) and TestSNAP's Listing-1 reference (listing1_deidrj,
// the full-range Z / dB pipeline) must both agree with central finite
// differences of the SNAP energy, and with each other.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "snap/bispectrum.hpp"
#include "snap/testsnap.hpp"

namespace ember::snap {
namespace {

struct Cluster {
  std::vector<Vec3> pos;
  double rcut;
};

Cluster random_cluster(Rng& rng, int n, double rcut) {
  Cluster c;
  c.rcut = rcut;
  const double span = 1.6 * rcut;
  while (static_cast<int>(c.pos.size()) < n) {
    Vec3 cand{rng.uniform(0.0, span), rng.uniform(0.0, span),
              rng.uniform(0.0, span)};
    bool ok = true;
    for (const auto& p : c.pos) {
      if ((cand - p).norm() < 1.0) {
        ok = false;
        break;
      }
    }
    if (ok) c.pos.push_back(cand);
  }
  return c;
}

// Total SNAP energy of an open cluster (no PBC): sum of atomic energies.
double total_energy(Bispectrum& bi, const Cluster& c, double beta0,
                    std::span<const double> beta) {
  double e = 0.0;
  std::vector<Vec3> rij;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) rij.push_back(d);
    }
    bi.compute_ui(rij, {});
    bi.compute_zi();
    bi.compute_bi();
    e += bi.energy(beta0, beta);
  }
  return e;
}

// Forces via the adjoint path. F_k = -dE/dr_k accumulated over all central
// atoms i whose neighborhood contains k.
std::vector<Vec3> adjoint_forces(Bispectrum& bi, const Cluster& c,
                                 std::span<const double> beta) {
  std::vector<Vec3> f(c.pos.size());
  std::vector<Vec3> rij;
  std::vector<std::size_t> nbr;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    nbr.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) {
        rij.push_back(d);
        nbr.push_back(k);
      }
    }
    bi.compute_ui(rij, {});
    bi.compute_yi(beta);
    std::vector<Vec3> de(rij.size());  // dE_i / dr_k
    bi.compute_deidrj_all(de);
    for (std::size_t m = 0; m < rij.size(); ++m) {
      f[nbr[m]] -= de[m];
      f[i] += de[m];  // dE_i/dr_i = -sum_k dE_i/dr_k
    }
  }
  return f;
}

// Forces via TestSNAP's Listing-1 reference (per-neighbor dB contracted
// with beta).
std::vector<Vec3> baseline_forces(const SnapParams& p, const Cluster& c,
                                  std::span<const double> beta) {
  std::vector<Vec3> f(c.pos.size());
  std::vector<Vec3> rij;
  std::vector<std::size_t> nbr;
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    rij.clear();
    nbr.clear();
    for (std::size_t k = 0; k < c.pos.size(); ++k) {
      if (k == i) continue;
      const Vec3 d = c.pos[k] - c.pos[i];
      if (d.norm() < c.rcut) {
        rij.push_back(d);
        nbr.push_back(k);
      }
    }
    const std::vector<Vec3> de = listing1_deidrj(p, rij, {}, beta);
    for (std::size_t m = 0; m < rij.size(); ++m) {
      f[nbr[m]] -= de[m];
      f[i] += de[m];
    }
  }
  return f;
}

std::vector<double> random_beta(Rng& rng, int n) {
  std::vector<double> beta(n);
  for (auto& b : beta) b = rng.uniform(-1.0, 1.0);
  return beta;
}

class SnapForces : public ::testing::TestWithParam<int> {};

TEST_P(SnapForces, AdjointMatchesFiniteDifference) {
  const int twojmax = GetParam();
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 3.6;
  Bispectrum bi(p);

  Rng rng(77 + twojmax);
  const Cluster c = random_cluster(rng, 8, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const auto f = adjoint_forces(bi, c, beta);

  const double h = 1e-6;
  Cluster pert = c;
  for (std::size_t k = 0; k < c.pos.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      pert.pos[k][d] = c.pos[k][d] + h;
      const double ep = total_energy(bi, pert, 0.0, beta);
      pert.pos[k][d] = c.pos[k][d] - h;
      const double em = total_energy(bi, pert, 0.0, beta);
      pert.pos[k][d] = c.pos[k][d];
      const double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(f[k][d], fd, 2e-5 * std::max(1.0, std::abs(fd)))
          << "atom " << k << " dim " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, SnapForces, ::testing::Values(2, 4, 8));

TEST(SnapForcesPaths, BaselineEqualsAdjoint) {
  SnapParams p;
  p.twojmax = 8;
  p.rcut = 3.6;
  Bispectrum bi(p);
  Rng rng(3);
  const Cluster c = random_cluster(rng, 10, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const auto fa = adjoint_forces(bi, c, beta);
  const auto fb = baseline_forces(p, c, beta);
  for (std::size_t k = 0; k < c.pos.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fa[k][d], fb[k][d],
                  1e-9 * std::max(1.0, std::abs(fa[k][d])));
    }
  }
}

TEST(SnapForcesPaths, ReferenceMatchesFiniteDifferenceOfBetaB) {
  // Pins the Listing-1 oracle on its own: per-neighbor dE_i/dr_k from
  // listing1_deidrj against central differences of beta . B, with B from
  // Bispectrum's descriptor stages, non-unit neighbor weights and rmin0 > 0,
  // so a bug shared by the oracle and the adjoint kernel cannot hide.
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 3.6;
  p.rmin0 = 0.2;
  Bispectrum bi(p);
  Rng rng(19);
  std::vector<Vec3> rij;
  std::vector<double> wj;
  while (rij.size() < 8) {
    const Vec3 r{rng.uniform(-p.rcut, p.rcut), rng.uniform(-p.rcut, p.rcut),
                 rng.uniform(-p.rcut, p.rcut)};
    if (r.norm() > 0.9 && r.norm() < 0.95 * p.rcut) {
      rij.push_back(r);
      wj.push_back(rng.uniform(0.5, 1.5));
    }
  }
  const auto beta = random_beta(rng, bi.num_b());
  const std::vector<Vec3> de = listing1_deidrj(p, rij, wj, beta);
  ASSERT_EQ(de.size(), rij.size());

  const auto beta_dot_b = [&](const std::vector<Vec3>& r) {
    bi.compute_ui(r, wj);
    bi.compute_zi();
    bi.compute_bi();
    double e = 0.0;
    for (int l = 0; l < bi.num_b(); ++l) e += beta[l] * bi.blist()[l];
    return e;
  };
  const double h = 1e-6;
  for (std::size_t m = 0; m < rij.size(); ++m) {
    for (int d = 0; d < 3; ++d) {
      auto pert = rij;
      pert[m][d] += h;
      const double ep = beta_dot_b(pert);
      pert[m][d] -= 2 * h;
      const double em = beta_dot_b(pert);
      const double fd = (ep - em) / (2 * h);
      EXPECT_NEAR(de[m][d], fd, 2e-5 * std::max(1.0, std::abs(fd)))
          << "neighbor " << m << " dim " << d;
    }
  }
}

TEST(SnapForcesPaths, EnergyTranslationInvariance) {
  // Translating the whole cluster must not change the energy, and the sum
  // of forces must vanish (Newton's third law within the cluster).
  SnapParams p;
  p.twojmax = 6;
  p.rcut = 3.6;
  Bispectrum bi(p);
  Rng rng(8);
  Cluster c = random_cluster(rng, 9, p.rcut);
  const auto beta = random_beta(rng, bi.num_b());

  const double e0 = total_energy(bi, c, 0.1, beta);
  const auto f = adjoint_forces(bi, c, beta);

  Vec3 fsum;
  for (const auto& fk : f) fsum += fk;
  EXPECT_NEAR(fsum.x, 0.0, 1e-9);
  EXPECT_NEAR(fsum.y, 0.0, 1e-9);
  EXPECT_NEAR(fsum.z, 0.0, 1e-9);

  for (auto& r : c.pos) r += Vec3{3.3, -1.1, 0.7};
  EXPECT_NEAR(total_energy(bi, c, 0.1, beta), e0, 1e-9 * std::abs(e0));
}

}  // namespace
}  // namespace ember::snap
