// Production-kernel parity contract: the half-range adjoint kernel (the
// TestSNAP V5-V7 layout: half column range + cached neighbor U lists + SoA
// planes, on whichever SIMD backend dispatched) must reproduce full-range
// references to <= 1e-12 per component:
//   - Utot against the closed-form Wigner matrices;
//   - Y against the full-range sum beta * Z over compute_zi's Z list, and
//     the adjoint energy against the explicit beta . B energy;
//   - per-atom force sums against TestSNAP V3 (the full-range adjoint
//     scheme: every (ma, mb) element, each neighbor's U recursion run
//     twice), and per-neighbor forces against TestSNAP's Listing-1
//     reference (listing1_deidrj: full-range Z and dB);
//   - the trainer's stage sequence (B, then one unit-coefficient yi and
//     force pass per column): unit rows against listing1_deidrj, their
//     beta-weighted sum against the beta pass, B left untouched;
//   - the full SnapPotential force/energy/virial evaluation, for linear
//     and quadratic models across thread counts, against the tests-only
//     Listing-1 baseline in snap_reference.hpp.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/snap_potential.hpp"
#include "snap/testsnap.hpp"
#include "snap/wigner.hpp"
#include "snap_reference.hpp"

namespace ember::snap {
namespace {

SnapParams base_params(int twojmax) {
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 3.4;
  p.bzero_flag = true;
  return p;
}

// Randomized neighbor shell with radii well inside the cutoff.
std::vector<Vec3> random_shell(Rng& rng, int n, double rlo, double rhi) {
  std::vector<Vec3> rij;
  rij.reserve(n);
  while (static_cast<int>(rij.size()) < n) {
    Vec3 r{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
           rng.uniform(-1.0, 1.0)};
    const double norm = r.norm();
    if (norm < 0.2 || norm > 1.0) continue;
    const double scale = rng.uniform(rlo, rhi) / norm;
    rij.push_back(scale * r);
  }
  return rij;
}

class SymmetricKernelParity : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricKernelParity, StagesMatchNaiveOracle) {
  const int twojmax = GetParam();
  const SnapParams p = base_params(twojmax);
  constexpr int kAtoms = 3;
  constexpr int kNeighbors = 22;
  TestSnap oracle(p, kAtoms, kNeighbors,
                  17 + static_cast<std::uint64_t>(twojmax));
  oracle.run(TestSnapVariant::V3_Adjoint);

  // TestSNAP draws beta in [-1, 1]. Model-scale coefficients keep the
  // forces O(1), so the absolute 1e-12 parity bound sits well above double
  // rounding but far below any real kernel discrepancy; forces are linear
  // in beta, so the oracle's sums are scaled by the same factor.
  constexpr double kScale = 0.01;
  std::vector<double> beta(oracle.beta().begin(), oracle.beta().end());
  for (auto& b : beta) b *= kScale;

  Bispectrum bi(p);
  const SnapIndex& idx = bi.index();
  std::vector<Vec3> de(kNeighbors);
  std::vector<Cplx> y_ref(idx.u_total());
  for (int i = 0; i < kAtoms; ++i) {
    const std::span<const Vec3> rij = oracle.neighborhood(i);
    bi.compute_ui(rij, {});
    ASSERT_EQ(bi.cached_neighbors(), kNeighbors);

    // Mirrored full-range Utot matches the closed-form accumulation.
    for (int j = 0; j <= twojmax; ++j) {
      const int n = j + 1;
      std::vector<Cplx> ref(static_cast<std::size_t>(n) * n);
      for (int ma = 0; ma < n; ++ma) ref[ma * n + ma] = {p.wself, 0.0};
      for (const Vec3& r : rij) {
        const auto ck =
            map_to_sphere(r, p.rcut, p.rfac0, p.rmin0, p.switch_flag);
        const auto u = wigner_matrix(j, ck.a, ck.b);
        for (std::size_t e = 0; e < ref.size(); ++e) ref[e] += ck.fc * u[e];
      }
      for (int e = 0; e < n * n; ++e) {
        const Cplx got = bi.utot()[idx.u_block(j) + e];
        EXPECT_NEAR(got.re, ref[e].re, 1e-12) << "atom " << i << " u " << j;
        EXPECT_NEAR(got.im, ref[e].im, 1e-12) << "atom " << i << " u " << j;
      }
    }

    // Half-column Y sweep (aligned CG blocks) matches the full-range sum
    // of beta-weighted Z matrices from compute_zi.
    bi.compute_yi(beta);
    bi.compute_zi();
    std::fill(y_ref.begin(), y_ref.end(), Cplx{});
    for (const ZTriple& t : idx.z_triples()) {
      const double coeff = beta[t.idxb] * t.beta_scale;
      const int n = t.j + 1;
      for (int e = 0; e < n * n; ++e) {
        y_ref[idx.u_block(t.j) + e] += coeff * bi.zlist()[t.idxz_u + e];
      }
    }
    const std::vector<Cplx> y = bi.ylist();
    for (int e = 0; e < idx.u_total(); ++e) {
      EXPECT_NEAR(y[e].re, y_ref[e].re, 1e-12) << "y " << e;
      EXPECT_NEAR(y[e].im, y_ref[e].im, 1e-12) << "y " << e;
    }

    // Adjoint energy identity against the explicit beta . B energy.
    const double e_adjoint = bi.energy_from_yi(0.4, beta);
    bi.compute_bi();
    const double e_explicit = bi.energy(0.4, beta);
    EXPECT_NEAR(e_adjoint, e_explicit,
                1e-12 * std::max(1.0, std::abs(e_explicit)));

    // Blocked force pass: per-atom sum against TestSNAP V3, and each
    // neighbor against TestSNAP's Listing-1 reference.
    bi.compute_deidrj_all(de);
    Vec3 fsum;
    for (const Vec3& d : de) fsum += d;
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fsum[d], kScale * oracle.forces()[i][d], 1e-12)
          << "atom " << i << " dim " << d;
    }
    const std::vector<Vec3> de_ref = listing1_deidrj(p, rij, {}, beta);
    for (int m = 0; m < kNeighbors; ++m) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(de[m][d], de_ref[m][d], 1e-12)
            << "atom " << i << " neighbor " << m << " dim " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SymmetricKernelParity,
                         ::testing::Values(2, 4, 6, 8, 14));

TEST(SymmetricKernel, MixedStageSequenceStaysCorrect) {
  // The trainer's stage sequence on one instance: compute_ui ->
  // compute_zi -> compute_bi, then per column l one unit-coefficient
  // compute_yi and one compute_deidrj_all (dB_l/dr_k is the adjoint with
  // beta = e_l). The unit rows must each match the Listing-1 dB_l/dr_k,
  // sum back to the beta-weighted pass, and leave B untouched.
  Rng rng(91);
  const auto rij = random_shell(rng, 12, 0.9, 3.0);
  const SnapParams p = base_params(8);
  Bispectrum bi(p);
  const int nb = bi.num_b();
  std::vector<double> beta(nb);
  for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

  bi.compute_ui(rij, {});
  bi.compute_zi();
  bi.compute_bi();
  const std::vector<double> b0(bi.blist().begin(), bi.blist().end());

  std::vector<double> unit(nb, 0.0);
  std::vector<Vec3> de(rij.size());
  std::vector<Vec3> weighted(rij.size());
  for (int l = 0; l < nb; ++l) {
    unit[l] = 1.0;
    bi.compute_yi(unit);
    bi.compute_deidrj_all(de);
    const std::vector<Vec3> ref = listing1_deidrj(p, rij, {}, unit);
    unit[l] = 0.0;
    for (std::size_t m = 0; m < rij.size(); ++m) {
      weighted[m] += beta[l] * de[m];
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(de[m][d], ref[m][d], 1e-12)
            << "column " << l << " neighbor " << m << " dim " << d;
      }
    }
  }
  for (int l = 0; l < nb; ++l) EXPECT_EQ(bi.blist()[l], b0[l]) << l;

  bi.compute_yi(beta);
  bi.compute_deidrj_all(de);
  for (std::size_t m = 0; m < rij.size(); ++m) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(weighted[m][d], de[m][d], 1e-12)
          << "neighbor " << m << " dim " << d;
    }
  }
}

// ---- full-potential parity over a periodic system ------------------------

SnapModel parity_model(int twojmax, bool quadratic, std::uint64_t seed) {
  SnapParams p = base_params(twojmax);
  p.rcut = 2.6;
  SnapModel m;
  m.params = p;
  Bispectrum bi(p);
  Rng rng(seed);
  m.beta.resize(bi.num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
  if (quadratic) {
    const std::size_t n = m.beta.size();
    Rng qrng(seed + 100);
    m.alpha.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = 1e-4 * qrng.uniform(-1.0, 1.0);
        m.alpha[i * n + j] = v;
        m.alpha[j * n + i] = v;
      }
    }
  }
  return m;
}

md::System perturbed_diamond(int reps, double sigma, std::uint64_t seed) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = reps;
  md::System sys = md::build_lattice(spec, 12.011);
  Rng rng(seed);
  md::perturb(sys, sigma, rng);
  return sys;
}

reference::ForceRun run_kernel(const SnapModel& model,
                               const md::System& start, int nthreads) {
  md::System sys = start;
  SnapPotential pot(model);
  const md::ComputeContext ctx{ExecutionPolicy{nthreads}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  sys.zero_forces();
  const auto ev = pot.compute(ctx, sys, nl);
  return {ev.energy, ev.virial,
          std::vector<Vec3>(sys.f.begin(), sys.f.end())};
}

void expect_kernel_parity(bool quadratic) {
  const md::System sys = perturbed_diamond(2, 0.1, 23);
  const SnapModel model = parity_model(8, quadratic, 7);

  const reference::ForceRun oracle = reference::reference_forces(model, sys);
  for (const int nth : {1, 4, 8}) {
    const reference::ForceRun got = run_kernel(model, sys, nth);
    EXPECT_NEAR(got.energy, oracle.energy,
                1e-12 * std::max(1.0, std::abs(oracle.energy)))
        << nth << " threads";
    EXPECT_NEAR(got.virial, oracle.virial,
                1e-12 * std::max(1.0, std::abs(oracle.virial)))
        << nth << " threads";
    ASSERT_EQ(got.f.size(), oracle.f.size());
    for (std::size_t i = 0; i < oracle.f.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(got.f[i][d], oracle.f[i][d], 1e-12)
            << nth << " threads, atom " << i << " dim " << d;
      }
    }
  }
}

TEST(SymmetricKernel, LinearPotentialMatchesNaive) {
  expect_kernel_parity(/*quadratic=*/false);
}

TEST(SymmetricKernel, QuadraticPotentialMatchesNaive) {
  expect_kernel_parity(/*quadratic=*/true);
}

}  // namespace
}  // namespace ember::snap
