// SIMD ("V8") dispatch parity contract: the production kernel on the
// dispatched vector table must agree with the width-1 scalar table
// (EMBER_SIMD=scalar) and with TestSNAP's Listing-1 reference
// (listing1_deidrj) to <= 1e-12 per component across 2J,
// neighbor counts that exercise every remainder-lane case, thread counts,
// and the full SnapPotential evaluation. The yi_block tiers (one atom per
// lane, remainder blocks included) agree with the width-1 tier and with
// the full-range sum coeff * Z to 1e-12. dei_block, driven directly with
// arbitrary Y planes, matches a central difference of the energy it
// differentiates on every tier. Every ISA the binary supports
// must have a kernel table of its lane width, default parameters must
// dispatch simd::choose_isa(), and the dispatcher must reject unknown
// override values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/simd/kernels.hpp"
#include "snap/snap_potential.hpp"
#include "snap/testsnap.hpp"
#include "snap/wigner.hpp"
#include "scoped_simd_env.hpp"

namespace ember::snap {
namespace {

SnapParams base_params(int twojmax) {
  SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 3.4;
  p.bzero_flag = true;
  return p;
}

// A kernel instance pinned to the width-1 scalar table.
Bispectrum scalar_kernel(const SnapParams& p) {
  ScopedSimdEnv env("scalar");
  return Bispectrum(p);
}

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

class SimdKernelParity : public ::testing::TestWithParam<int> {};

TEST_P(SimdKernelParity, MatchesSymmetricAcrossNeighborCounts) {
  const int twojmax = GetParam();
  // n = 1 and 7 are pure remainder blocks on both AVX2 (width 4) and
  // AVX-512 (width 8); 9 = full block(s) + 1; 22 mixes several blocks.
  for (const int nn : {1, 7, 9, 22}) {
    Rng rng(101 + static_cast<std::uint64_t>(16 * twojmax + nn));
    const auto rij = random_shell(rng, nn, 0.8, 3.2);
    const std::vector<double> wj(rij.size(), 1.0);

    Bispectrum scalar = scalar_kernel(base_params(twojmax));
    Bispectrum simd(base_params(twojmax));
    std::vector<double> beta(scalar.num_b());
    for (auto& b : beta) b = 0.01 * rng.uniform(-1.0, 1.0);

    scalar.compute_ui(rij, wj);
    simd.compute_ui(rij, wj);
    ASSERT_EQ(simd.cached_neighbors(), nn);
    for (int e = 0; e < scalar.index().u_total(); ++e) {
      EXPECT_NEAR(simd.utot()[e].re, scalar.utot()[e].re, 1e-12)
          << "n=" << nn << " u " << e;
      EXPECT_NEAR(simd.utot()[e].im, scalar.utot()[e].im, 1e-12)
          << "n=" << nn << " u " << e;
    }

    scalar.compute_yi(beta);
    simd.compute_yi(beta);
    const double e_scalar = scalar.energy_from_yi(0.4, beta);
    const double e_simd = simd.energy_from_yi(0.4, beta);
    EXPECT_NEAR(e_simd, e_scalar, 1e-12 * std::max(1.0, std::abs(e_scalar)));

    // Blocked force pass, dispatched vs width-1, and each against the
    // Listing-1 reference: the scalar table runs the same template as the
    // vector ones, so only the reference catches a template bug. The
    // padded remainder lanes must not leak into any neighbor's force.
    std::vector<Vec3> de_simd(rij.size());
    std::vector<Vec3> de_scalar(rij.size());
    simd.compute_deidrj_all(de_simd);
    scalar.compute_deidrj_all(de_scalar);
    const std::vector<Vec3> de_ref =
        listing1_deidrj(base_params(twojmax), rij, wj, beta);
    for (std::size_t m = 0; m < rij.size(); ++m) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(de_simd[m][d], de_scalar[m][d], 1e-12)
            << "n=" << nn << " neighbor " << m << " dim " << d;
        EXPECT_NEAR(de_simd[m][d], de_ref[m][d], 1e-12)
            << "n=" << nn << " neighbor " << m << " dim " << d;
        EXPECT_NEAR(de_scalar[m][d], de_ref[m][d], 1e-12)
            << "n=" << nn << " neighbor " << m << " dim " << d;
      }
    }
  }
}

TEST_P(SimdKernelParity, YiBlockTiersAgree) {
  // yi_block puts one atom per lane: every tier runs blocks of its own
  // width over the same atoms, each atom with its own coefficients (as a
  // quadratic model's beta_eff), and must agree with the width-1 tier and
  // with the full-range sum coeff * Z from compute_zi to 1e-12. 11 atoms
  // leave a remainder block on every width.
  const int twojmax = GetParam();
  const SnapParams p = base_params(twojmax);
  constexpr int kAtoms = 11;
  Rng rng(303 + static_cast<std::uint64_t>(twojmax));
  std::vector<std::vector<Vec3>> hood(kAtoms);
  for (int a = 0; a < kAtoms; ++a) {
    hood[a] = random_shell(rng, a == 4 ? 0 : 2 + (7 * a) % 20, 0.8, 3.2);
  }
  const SnapIndex idx(twojmax);
  const auto& triples = idx.z_triples();
  std::vector<std::vector<double>> coeff(kAtoms,
                                         std::vector<double>(triples.size()));
  for (auto& c : coeff) {
    for (auto& x : c) x = 0.01 * rng.uniform(-1.0, 1.0);
  }

  // Y by atom for one tier, read back through ylist(lane).
  const auto run_tier = [&](const char* tier) {
    ScopedSimdEnv env(tier);
    Bispectrum bi(p);
    const int w = bi.lane_width();
    aligned_vector<double> planes(triples.size() * w, 0.0);
    std::vector<std::vector<Cplx>> y(kAtoms);
    for (int i0 = 0; i0 < kAtoms; i0 += w) {
      const int na = std::min(w, kAtoms - i0);
      for (int l = 0; l < w; ++l) {
        if (l >= na) {
          bi.clear_lane(l);
          continue;
        }
        bi.compute_ui(hood[i0 + l], {}, l);
        for (std::size_t t = 0; t < triples.size(); ++t) {
          planes[t * w + l] = coeff[i0 + l][t];
        }
      }
      bi.compute_yi_block(planes);
      for (int l = 0; l < na; ++l) y[i0 + l] = bi.ylist(l);
    }
    return y;
  };

  const auto scalar = run_tier("scalar");
  Bispectrum ref(p);
  std::vector<Cplx> y_ref(idx.u_total());
  for (int a = 0; a < kAtoms; ++a) {
    ref.compute_ui(hood[a], {});
    ref.compute_zi();
    std::fill(y_ref.begin(), y_ref.end(), Cplx{});
    for (std::size_t t = 0; t < triples.size(); ++t) {
      const int n = triples[t].j + 1;
      for (int e = 0; e < n * n; ++e) {
        y_ref[idx.u_block(triples[t].j) + e] +=
            coeff[a][t] * ref.zlist()[triples[t].idxz_u + e];
      }
    }
    for (int e = 0; e < idx.u_total(); ++e) {
      EXPECT_NEAR(scalar[a][e].re, y_ref[e].re, 1e-12) << a << " y " << e;
      EXPECT_NEAR(scalar[a][e].im, y_ref[e].im, 1e-12) << a << " y " << e;
    }
  }
  for (const char* tier : {"avx2", "avx512"}) {
    const auto got = run_tier(tier);
    for (int a = 0; a < kAtoms; ++a) {
      for (int e = 0; e < idx.u_total(); ++e) {
        EXPECT_NEAR(got[a][e].re, scalar[a][e].re, 1e-12)
            << tier << " atom " << a << " y " << e;
        EXPECT_NEAR(got[a][e].im, scalar[a][e].im, 1e-12)
            << tier << " atom " << a << " y " << e;
      }
    }
  }
}

// ---- dei_block kernel contract -------------------------------------------
//
// The plane-level harness packs blocks the way kernels.hpp states (padded
// lanes repeat the last active neighbor, weight 0) and reads Y through
// y_stride = 1 from plain planes, so Y can be any complex vector.

struct DeiHarness {
  SnapParams p;
  SnapIndex idx;
  std::vector<double> rootpq;

  explicit DeiHarness(const SnapParams& params)
      : p(params), idx(params.twojmax) {
    const int tj = p.twojmax;
    rootpq.assign(static_cast<std::size_t>(tj + 1) * (tj + 1), 0.0);
    for (int a = 1; a <= tj; ++a) {
      for (int b = 1; b <= tj; ++b) {
        rootpq[static_cast<std::size_t>(a) * (tj + 1) + b] =
            std::sqrt(static_cast<double>(a) / b);
      }
    }
  }

  // Bare half-range U planes of one block (ui_block), lane-interleaved.
  void run_ui(const simd::SimdOps& ops, const std::vector<CayleyKlein>& ck,
              aligned_vector<double>& ur, aligned_vector<double>& ui) const {
    const int w = ops.width;
    const std::size_t plane = static_cast<std::size_t>(idx.u_half_total()) * w;
    aligned_vector<double> slots(4 * w);
    aligned_vector<double> wfc(w, 0.0);
    aligned_vector<double> acc_re(plane, 0.0);
    aligned_vector<double> acc_im(plane, 0.0);
    for (int l = 0; l < w; ++l) {
      slots[0 * w + l] = ck[l].a.re;
      slots[1 * w + l] = ck[l].a.im;
      slots[2 * w + l] = ck[l].b.re;
      slots[3 * w + l] = ck[l].b.im;
    }
    ur.assign(plane, 0.0);
    ui.assign(plane, 0.0);
    simd::UiBlockArgs u;
    u.twojmax = p.twojmax;
    u.half_block = idx.u_half_block_data();
    u.nh = idx.u_half_total();
    u.rootpq = rootpq.data();
    u.a_re = slots.data();
    u.a_im = slots.data() + w;
    u.b_re = slots.data() + 2 * w;
    u.b_im = slots.data() + 3 * w;
    u.wfc = wfc.data();
    u.ur = ur.data();
    u.ui = ui.data();
    u.acc_re = acc_re.data();
    u.acc_im = acc_im.data();
    ops.ui_block(u);
  }

  // dE/dr_k of E = sum_k w_k fc_k sum_e y[e] . u_e(r_k) through dei_block.
  std::vector<Vec3> dei(const simd::SimdOps& ops, const std::vector<Vec3>& rij,
                        const std::vector<double>& wj,
                        const std::vector<double>& y_re,
                        const std::vector<double>& y_im) const {
    const int w = ops.width;
    const int nn = static_cast<int>(rij.size());
    const std::size_t plane = static_cast<std::size_t>(idx.u_half_total()) * w;
    aligned_vector<double> ur;
    aligned_vector<double> ui;
    aligned_vector<double> x_re(plane);
    aligned_vector<double> x_im(plane);
    aligned_vector<double> slots(static_cast<std::size_t>(simd::kCkSlots) * w);
    aligned_vector<double> out(3 * w);
    std::vector<Vec3> de(nn);
    for (int k0 = 0; k0 < nn; k0 += w) {
      std::vector<CayleyKlein> ck(w);
      for (int l = 0; l < w; ++l) {
        const bool active = k0 + l < nn;
        const int k = active ? k0 + l : nn - 1;
        const CayleyKlein& c = ck[l] = map_to_sphere(
            rij[k], p.rcut, p.rfac0, p.rmin0, p.switch_flag);
        double* s = slots.data();
        s[simd::kCkARe * w + l] = c.a.re;
        s[simd::kCkAIm * w + l] = c.a.im;
        s[simd::kCkBRe * w + l] = c.b.re;
        s[simd::kCkBIm * w + l] = c.b.im;
        for (int d = 0; d < 3; ++d) {
          s[(simd::kCkDaRe0 + d) * w + l] = c.da[d].re;
          s[(simd::kCkDaIm0 + d) * w + l] = c.da[d].im;
          s[(simd::kCkDbRe0 + d) * w + l] = c.db[d].re;
          s[(simd::kCkDbIm0 + d) * w + l] = c.db[d].im;
          s[(simd::kCkDfc0 + d) * w + l] = c.dfc[d];
        }
        s[simd::kCkFc * w + l] = c.fc;
        s[simd::kCkW * w + l] = active ? wj[k] : 0.0;
      }
      run_ui(ops, ck, ur, ui);
      simd::DeiBlockArgs g;
      g.twojmax = p.twojmax;
      g.half_block = idx.u_half_block_data();
      g.nh = idx.u_half_total();
      g.rootpq = rootpq.data();
      g.ck = slots.data();
      g.ur = ur.data();
      g.ui = ui.data();
      g.x_re = x_re.data();
      g.x_im = x_im.data();
      g.y_re = y_re.data();
      g.y_im = y_im.data();
      g.y_stride = 1;
      g.out = out.data();
      ops.dei_block(g);
      for (int l = 0; l < w && k0 + l < nn; ++l) {
        de[k0 + l] = Vec3{out[l], out[w + l], out[2 * w + l]};
      }
    }
    return de;
  }

  // w fc(r) sum_e y[e] . u_e(r) for one neighbor, U from the width-1
  // ui_block.
  double energy(const Vec3& r, double wk, const std::vector<double>& y_re,
                const std::vector<double>& y_im) const {
    const CayleyKlein c =
        map_to_sphere(r, p.rcut, p.rfac0, p.rmin0, p.switch_flag);
    aligned_vector<double> ur;
    aligned_vector<double> ui;
    run_ui(simd::scalar_ops(), {c}, ur, ui);
    double sum = 0.0;
    for (int e = 0; e < idx.u_half_total(); ++e) {
      sum += y_re[e] * ur[e] + y_im[e] * ui[e];
    }
    return wk * c.fc * sum;
  }
};

TEST_P(SimdKernelParity, DeiBlockMatchesFiniteDifference) {
  // Y is an arbitrary complex vector, not built from a beta: self-mirror
  // elements carry imaginary parts no model produces, so every element's
  // gradient path is exercised. Neighbor counts W - 1 and W + 1 leave
  // padded lanes on every tier; rmin0 > 0 and the switch off change the
  // mapping and fc terms of the product rule.
  const int twojmax = GetParam();
  SnapParams inner = base_params(twojmax);
  inner.rmin0 = 0.3;
  SnapParams no_switch = base_params(twojmax);
  no_switch.switch_flag = false;
  int config = 0;
  for (const SnapParams& p : {base_params(twojmax), inner, no_switch}) {
    ++config;
    const DeiHarness h(p);
    Rng rng(505 + static_cast<std::uint64_t>(16 * twojmax + config));
    const int nh = h.idx.u_half_total();
    std::vector<double> y_re(nh);
    std::vector<double> y_im(nh);
    for (int e = 0; e < nh; ++e) {
      y_re[e] = rng.uniform(-1.0, 1.0);
      y_im[e] = rng.uniform(-1.0, 1.0);
    }
    const int cap = static_cast<int>(simd::max_supported_isa());
    for (int t = 0; t <= cap; ++t) {
      const auto isa = static_cast<simd::SimdIsa>(t);
      const simd::SimdOps& ops = simd::ops_for(isa);
      for (const int nn : {std::max(1, ops.width - 1), ops.width + 1}) {
        const auto rij = random_shell(rng, nn, 0.8, 3.2);
        std::vector<double> wj(nn);
        for (auto& x : wj) x = rng.uniform(0.5, 1.5);
        const auto de = h.dei(ops, rij, wj, y_re, y_im);
        const auto de1 = h.dei(simd::scalar_ops(), rij, wj, y_re, y_im);
        constexpr double kStep = 1e-5;
        for (int k = 0; k < nn; ++k) {
          for (int d = 0; d < 3; ++d) {
            Vec3 rp = rij[k];
            Vec3 rm = rij[k];
            rp[d] += kStep;
            rm[d] -= kStep;
            const double fd = (h.energy(rp, wj[k], y_re, y_im) -
                               h.energy(rm, wj[k], y_re, y_im)) /
                              (2.0 * kStep);
            EXPECT_NEAR(de[k][d], fd, 1e-7 * std::max(1.0, std::abs(fd)))
                << simd::to_string(isa) << " config " << config << " n=" << nn
                << " neighbor " << k << " dim " << d;
            EXPECT_NEAR(de[k][d], de1[k][d], 1e-12)
                << simd::to_string(isa) << " config " << config << " n=" << nn
                << " neighbor " << k << " dim " << d;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SimdKernelParity,
                         ::testing::Values(2, 4, 8, 14));

TEST(SimdDispatch, EveryIsaHasAKernelTable) {
  // Every tier the binary can run has a table of its own lane width; the
  // scalar tier is the width-1 table, not a separate code path.
  EXPECT_EQ(&simd::ops_for(simd::SimdIsa::Scalar), &simd::scalar_ops());
  EXPECT_EQ(simd::scalar_ops().width, 1);
  const int cap = static_cast<int>(simd::max_supported_isa());
  for (int i = 0; i <= cap; ++i) {
    const auto isa = static_cast<simd::SimdIsa>(i);
    const simd::SimdOps& ops = simd::ops_for(isa);
    EXPECT_EQ(ops.width, simd::lane_width(isa)) << simd::to_string(isa);
    EXPECT_NE(ops.ui_block, nullptr) << simd::to_string(isa);
    EXPECT_NE(ops.yi_block, nullptr) << simd::to_string(isa);
    EXPECT_NE(ops.dei_block, nullptr) << simd::to_string(isa);
  }
}

TEST(SimdDispatch, OverrideOnlyLowersTheIsa) {
  const simd::SimdIsa cap = simd::max_supported_isa();
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(simd::choose_isa(), simd::SimdIsa::Scalar);
  }
  {
    // Requesting above capability clamps down instead of failing.
    ScopedSimdEnv env("avx512");
    EXPECT_EQ(simd::choose_isa(), cap);
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(simd::choose_isa(), cap);
  }
}

TEST(SimdDispatch, UnknownOverrideThrows) {
  ScopedSimdEnv env("sse9");
  EXPECT_THROW(static_cast<void>(simd::choose_isa()), Error);
  EXPECT_THROW(Bispectrum(base_params(2)), Error);
}

TEST(SimdDispatch, LaneWidthMatchesIsa) {
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Scalar), 1);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx2), 4);
  EXPECT_EQ(simd::lane_width(simd::SimdIsa::Avx512), 8);
  EXPECT_STREQ(simd::to_string(simd::SimdIsa::Avx2), "avx2");
  // An instance reports the ISA it actually dispatched to.
  Bispectrum simd_bi(base_params(2));
  EXPECT_EQ(simd_bi.simd_isa(), simd::choose_isa());
}

TEST(SimdDispatch, DefaultParamsDispatchChosenIsa) {
  // No parameter selects a kernel: default-constructed SnapParams get the
  // dispatched backend, and EMBER_SIMD is the only knob that lowers it.
  EXPECT_EQ(Bispectrum(SnapParams{}).simd_isa(), simd::choose_isa());
  ScopedSimdEnv env("scalar");
  EXPECT_EQ(Bispectrum(SnapParams{}).simd_isa(), simd::SimdIsa::Scalar);
}

// ---- full-potential parity over a periodic system ------------------------

SnapModel parity_model(int twojmax, std::uint64_t seed) {
  SnapParams p = base_params(twojmax);
  p.rcut = 2.6;
  SnapModel m;
  m.params = p;
  Bispectrum bi(p);
  Rng rng(seed);
  m.beta.resize(bi.num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
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

struct ForceRun {
  double energy = 0.0;
  double virial = 0.0;
  std::vector<Vec3> f;
};

ForceRun run_kernel(const SnapModel& model, const md::System& start,
                    int nthreads) {
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

TEST(SimdKernel, PotentialMatchesSymmetricAcrossThreads) {
  const md::System sys = perturbed_diamond(2, 0.1, 23);
  const SnapModel model = parity_model(8, 7);

  ForceRun oracle;
  {
    ScopedSimdEnv env("scalar");
    oracle = run_kernel(model, sys, 1);
  }
  for (const int nth : {1, 4}) {
    const ForceRun got = run_kernel(model, sys, nth);
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

TEST(SimdKernel, LegacyKernelModelRunsDispatchedKernel) {
  // Whatever kernel an older model file recorded, it loads onto the one
  // production kernel: same dispatched ISA, bitwise-identical forces.
  const SnapModel m = parity_model(4, 3);
  const md::System sys = perturbed_diamond(2, 0.1, 5);
  const char* path = "simd_kernel_model.tmp";
  m.save(path);
  const ForceRun ref = run_kernel(SnapModel::load(path), sys, 1);
  for (const char* kernel : {"naive", "symmetric", "simd"}) {
    {
      std::ofstream os(path, std::ios::app);
      os << "kernel " << kernel << '\n';
    }
    const SnapModel back = SnapModel::load(path);
    SnapPotential pot(back);
    EXPECT_EQ(pot.kernel().simd_isa(), simd::choose_isa()) << kernel;
    const ForceRun got = run_kernel(back, sys, 1);
    ASSERT_EQ(got.f.size(), ref.f.size());
    for (std::size_t i = 0; i < ref.f.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(got.f[i][d], ref.f[i][d]) << kernel << " atom " << i;
      }
    }
  }
  std::remove(path);
}

}  // namespace
}  // namespace ember::snap
