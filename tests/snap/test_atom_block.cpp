// Atom-block contract of the production SNAP path. SnapPotential runs a
// chunk's atoms in blocks of W (the dispatched lane width): ui per atom
// into its lane, one yi_block per block over the flattened coupling list,
// then dei per atom from its lane of Y. It must
//   - match the per-atom Listing-1 oracle (snap_reference.hpp) in forces,
//     energy and virial to <= 1e-12 at 2J in {2, 4, 8, 14} on every ISA
//     tier this host runs, for 1, W-1, W+1 and 2W+3 atoms (full, short
//     and remainder blocks), with an isolated atom (no neighbors) inside a
//     block, for linear and quadratic models;
//   - give every atom the same dE and site energy, bit for bit, whatever
//     its lane and its block-mates (permuted atom orders); the per-atom
//     API (compute_yi on lane 0) is the same kernel and agrees bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "md/compute_context.hpp"
#include "md/neighbor.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/snap_potential.hpp"
#include "scoped_simd_env.hpp"
#include "snap_reference.hpp"

namespace ember::snap {
namespace {

constexpr double kRcut = 2.6;

SnapModel block_model(int twojmax, bool quadratic, std::uint64_t seed) {
  SnapModel m;
  m.params.twojmax = twojmax;
  m.params.rcut = kRcut;
  m.params.bzero_flag = true;
  Rng rng(seed);
  m.beta.resize(SnapIndex(twojmax).num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
  if (quadratic) {
    const std::size_t n = m.beta.size();
    m.alpha.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = 1e-4 * rng.uniform(-1.0, 1.0);
        m.alpha[i * n + j] = v;
        m.alpha[j * n + i] = v;
      }
    }
  }
  return m;
}

// n atoms on a perturbed 1.5 A cubic grid (up to 27 sites) in a 30 A
// periodic box, so each has a few to ~18 neighbors; for n > 1 the middle
// atom is moved far from the rest and has none.
md::System cluster(int n, std::uint64_t seed) {
  md::System sys(md::Box(30.0, 30.0, 30.0), 12.011);
  Rng rng(seed);
  for (int a = 0; a < n; ++a) {
    Vec3 r{5.0 + 1.5 * (a % 3), 5.0 + 1.5 * ((a / 3) % 3),
           5.0 + 1.5 * (a / 9)};
    for (int d = 0; d < 3; ++d) r[d] += rng.uniform(-0.15, 0.15);
    if (n > 1 && a == n / 2) r = Vec3{22.0, 21.0, 23.0};
    sys.add_atom(r);
  }
  return sys;
}

reference::ForceRun run_potential(const SnapModel& model,
                                  const md::System& start, int nthreads) {
  md::System sys = start;
  SnapPotential pot(model);
  const md::ComputeContext ctx{ExecutionPolicy{nthreads}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  sys.zero_forces();
  const auto ev = pot.compute(ctx, sys, nl);
  return {ev.energy, ev.virial,
          std::vector<Vec3>(sys.f.begin(), sys.f.begin() + sys.nlocal())};
}

// Every ISA tier this host and binary can run.
std::vector<const char*> tiers() {
  std::vector<const char*> out{"scalar"};
  const auto cap = simd::max_supported_isa();
  if (cap >= simd::SimdIsa::Avx2) out.push_back("avx2");
  if (cap >= simd::SimdIsa::Avx512) out.push_back("avx512");
  return out;
}

class SnapAtomBlock : public ::testing::TestWithParam<int> {};

TEST_P(SnapAtomBlock, PotentialMatchesPerAtomOracle) {
  const int twojmax = GetParam();
  for (const bool quadratic : {false, true}) {
    const SnapModel model = block_model(
        twojmax, quadratic, 40 + static_cast<std::uint64_t>(twojmax));
    std::map<int, reference::ForceRun> oracle;  // by atom count
    for (const char* tier : tiers()) {
      ScopedSimdEnv env(tier);
      const int w = simd::lane_width(simd::choose_isa());
      for (const int n : {1, w - 1, w + 1, 2 * w + 3}) {
        if (n < 1) continue;
        const md::System sys = cluster(n, 7 + static_cast<std::uint64_t>(n));
        if (oracle.count(n) == 0) {
          oracle[n] = reference::reference_forces(model, sys);
        }
        const reference::ForceRun& ref = oracle[n];
        for (const int nth : {1, 3}) {
          const reference::ForceRun got = run_potential(model, sys, nth);
          const std::string where = std::string(tier) + " n=" +
                                    std::to_string(n) + " threads=" +
                                    std::to_string(nth) +
                                    (quadratic ? " quadratic" : " linear");
          EXPECT_NEAR(got.energy, ref.energy,
                      1e-12 * std::max(1.0, std::abs(ref.energy)))
              << where;
          EXPECT_NEAR(got.virial, ref.virial,
                      1e-12 * std::max(1.0, std::abs(ref.virial)))
              << where;
          ASSERT_EQ(got.f.size(), ref.f.size()) << where;
          for (std::size_t i = 0; i < ref.f.size(); ++i) {
            for (int d = 0; d < 3; ++d) {
              EXPECT_NEAR(got.f[i][d], ref.f[i][d], 1e-12)
                  << where << " atom " << i << " dim " << d;
            }
          }
          if (n > 1) {
            // The isolated atom feels nothing.
            EXPECT_EQ(got.f[n / 2][0], 0.0) << where;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmaxSweep, SnapAtomBlock,
                         ::testing::Values(2, 4, 8, 14));

// ---- lane-position invariance --------------------------------------------

std::vector<Vec3> random_shell(Rng& rng, int n) {
  std::vector<Vec3> rij;
  while (static_cast<int>(rij.size()) < n) {
    Vec3 r{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
           rng.uniform(-1.0, 1.0)};
    const double norm = r.norm();
    if (norm < 0.2 || norm > 1.0) continue;
    rij.push_back(rng.uniform(0.9, 2.5) / norm * r);
  }
  return rij;
}

struct AtomResult {
  double energy = 0.0;
  std::vector<Vec3> de;
};

// Runs the neighborhoods in `order` through the block stages the way
// SnapPotential does (ui per lane, padded lanes cleared, one yi_block,
// then energy and dei per lane) and returns the results by atom.
std::vector<AtomResult> run_blocks(const SnapModel& model,
                                   const std::vector<std::vector<Vec3>>& hood,
                                   const std::vector<int>& order) {
  Bispectrum bi(model.params);
  const int w = bi.lane_width();
  const auto& triples = bi.index().z_triples();
  aligned_vector<double> coeff(triples.size() * w);
  std::vector<double> beta_eff;
  std::vector<AtomResult> out(hood.size());
  const int n = static_cast<int>(order.size());
  for (int i0 = 0; i0 < n; i0 += w) {
    const int na = std::min(w, n - i0);
    for (int l = 0; l < w; ++l) {
      if (l >= na) {
        bi.clear_lane(l);
        continue;
      }
      const int a = order[i0 + l];
      bi.compute_ui(hood[a], {}, l);
      bi.compute_zi();
      bi.compute_bi();
      model.effective_beta(bi.blist(), beta_eff);
      out[a].energy = model.site_energy(bi.blist());
      for (std::size_t t = 0; t < triples.size(); ++t) {
        coeff[t * w + l] = beta_eff[triples[t].idxb] * triples[t].beta_scale;
      }
    }
    bi.compute_yi_block(coeff);
    for (int l = 0; l < na; ++l) {
      const int a = order[i0 + l];
      if (!model.quadratic()) {
        out[a].energy = bi.energy_from_yi(model.beta0, model.beta, l);
      }
      out[a].de.resize(hood[a].size());
      bi.compute_deidrj_all(out[a].de, l);
    }
  }
  return out;
}

TEST(SnapAtomBlock, ResultsDoNotDependOnLaneOrBlockMates) {
  for (const char* tier : tiers()) {
    ScopedSimdEnv env(tier);
    const int w = simd::lane_width(simd::choose_isa());
    const int n = 2 * w + 3;
    for (const bool quadratic : {false, true}) {
      const SnapModel model = block_model(8, quadratic, 5);
      Rng rng(77);
      std::vector<std::vector<Vec3>> hood(n);
      for (int a = 0; a < n; ++a) {
        hood[a] = random_shell(rng, a == 1 ? 0 : 3 + (5 * a) % 24);
      }
      std::vector<int> order(n);
      std::iota(order.begin(), order.end(), 0);
      const auto base = run_blocks(model, hood, order);
      std::reverse(order.begin(), order.end());
      const auto reversed = run_blocks(model, hood, order);
      std::rotate(order.begin(), order.begin() + 2, order.end());
      const auto rotated = run_blocks(model, hood, order);

      // The per-atom API: lane 0, other lanes' coefficients zero.
      Bispectrum one(model.params);
      std::vector<double> beta_eff;
      for (int a = 0; a < n; ++a) {
        const std::string where = std::string(tier) + " atom " +
                                  std::to_string(a) +
                                  (quadratic ? " quadratic" : " linear");
        EXPECT_EQ(reversed[a].energy, base[a].energy) << where;
        EXPECT_EQ(rotated[a].energy, base[a].energy) << where;
        one.compute_ui(hood[a], {});
        one.compute_zi();
        one.compute_bi();
        model.effective_beta(one.blist(), beta_eff);
        one.compute_yi(beta_eff);
        if (!quadratic) {
          EXPECT_EQ(one.energy_from_yi(model.beta0, model.beta),
                    base[a].energy)
              << where;
        }
        std::vector<Vec3> de(hood[a].size());
        one.compute_deidrj_all(de);
        for (std::size_t m = 0; m < de.size(); ++m) {
          for (int d = 0; d < 3; ++d) {
            EXPECT_EQ(reversed[a].de[m][d], base[a].de[m][d]) << where;
            EXPECT_EQ(rotated[a].de[m][d], base[a].de[m][d]) << where;
            EXPECT_EQ(de[m][d], base[a].de[m][d]) << where;
          }
        }
      }
    }
  }
}

TEST(SnapAtomBlock, LaneOutOfRangeIsRejected) {
  Bispectrum bi(block_model(4, false, 1).params);
  const int w = bi.lane_width();
  std::vector<Vec3> de;
  EXPECT_THROW(bi.compute_ui({}, {}, w), Error);
  EXPECT_THROW(bi.clear_lane(-1), Error);
  EXPECT_THROW(bi.compute_deidrj_all(de, w), Error);
  EXPECT_THROW((void)bi.energy_from_yi(0.0, {}, w), Error);
}

TEST(SnapAtomBlock, PermutedAtomsGetBitwiseEqualForces) {
  // Isolated dimers (plus one lone atom): each force is one atom's own
  // dE minus its partner's, a single rounding in either order, so any
  // difference between permutations would come from an atom's lane or
  // block-mates.
  for (const bool quadratic : {false, true}) {
    const SnapModel model = block_model(8, quadratic, 9);
    const int w = Bispectrum(model.params).lane_width();
    const int ndimer = w + 2;
    md::System sys(md::Box(60.0, 60.0, 60.0), 12.011);
    Rng rng(3);
    for (int p = 0; p < ndimer; ++p) {
      const Vec3 c{4.0 + 6.0 * (p % 8), 4.0 + 6.0 * (p / 8), 10.0};
      const Vec3 bond =
          rng.uniform(1.1, 2.2) / std::sqrt(3.0) *
          Vec3{1.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      sys.add_atom(c);
      sys.add_atom(c + bond);
    }
    sys.add_atom(Vec3{40.0, 40.0, 40.0});
    const int n = sys.nlocal();

    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    Rng prng(11);
    for (int i = n - 1; i > 0; --i) {
      const int k = static_cast<int>(prng.uniform(0.0, i + 1.0));
      std::swap(perm[i], perm[std::min(k, i)]);
    }
    md::System permuted(sys.box(), 12.011);
    for (int i = 0; i < n; ++i) permuted.add_atom(sys.x[perm[i]]);

    const auto base = run_potential(model, sys, 1);
    const auto got = run_potential(model, permuted, 1);
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(got.f[i][d], base.f[perm[i]][d])
            << (quadratic ? "quadratic" : "linear") << " atom " << perm[i];
      }
    }
  }
}

}  // namespace
}  // namespace ember::snap
