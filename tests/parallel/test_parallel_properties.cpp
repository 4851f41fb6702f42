// Wider domain-decomposition coverage: odd rank counts, asymmetric
// grids, halo accounting, thermostatted parallel dynamics, and repeated
// migration stress.

#include <gtest/gtest.h>

#include <memory>

#include "comm/transport.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_lj.hpp"
#include "../comm/transport_test_util.hpp"

namespace ember::parallel {
namespace {

md::System make_argon(int nx, int ny, int nz, double temperature,
                      std::uint64_t seed) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  md::System sys = md::build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  return sys;
}

std::shared_ptr<md::PairPotential> lj() {
  return std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5);
}

class OddRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(OddRankCounts, EnergyMatchesSerial) {
  // Odd / prime counts force slab decompositions (n x 1 x 1): the box
  // must be long enough that every slab still exceeds the ghost shell.
  const int nranks = GetParam();
  md::System global = make_argon(6, 6, 6, 30.0, 5);
  auto shortlj = [] {
    return std::make_shared<ref::PairLJ>(0.0104, 3.4, 4.0);
  };
  md::Simulation serial(global, shortlj(), 0.002, 0.4, 5);
  serial.setup();
  const double e_serial = serial.potential_energy();

  comm::test::make(comm::TransportKind::Thread, nranks)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, shortlj(), 0.002, 0.4, 5);
    psim.setup();
    const auto g = psim.global_state();
    EXPECT_NEAR(g.potential_energy, e_serial, 1e-9 * std::abs(e_serial));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, OddRankCounts, ::testing::Values(3, 5, 6, 7));

TEST(OddRankGuard, RejectsSubdomainsSmallerThanTheHalo) {
  // The constructor must refuse configurations whose one-shell halo
  // cannot be satisfied, rather than silently computing wrong forces.
  md::System global = make_argon(3, 3, 3, 30.0, 5);
  // prime -> 15.8/7 = 2.3 A slabs << rghost
  const auto ctx = comm::test::make(comm::TransportKind::Thread, 7);
  EXPECT_THROW(ctx->run([&](comm::Transport& c) {
                 ParallelSimulation psim(c, global, lj(), 0.002, 0.5, 5);
               }),
               Error);
}

TEST(AsymmetricGrid, NonCubicBoxGetsMatchingDecomposition) {
  // A 4x2x1-cell box on 8 ranks: choose() must favor cutting the long
  // dimension more.
  md::Box box(40.0, 20.0, 10.0);
  const auto grid = RankGrid::choose(8, box.lengths());
  EXPECT_EQ(grid.size(), 8);
  EXPECT_GE(grid.nx, grid.ny);
  EXPECT_GE(grid.ny, grid.nz);

  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = 8;  // large enough that every sub-domain exceeds the halo
  spec.ny = 4;
  spec.nz = 4;
  md::System global = md::build_lattice(spec, 39.948);
  Rng rng(7);
  global.thermalize(40.0, rng);

  md::Simulation serial(global, lj(), 0.002, 0.5, 7);
  serial.run(40);

  comm::test::make(comm::TransportKind::Thread, 8)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, lj(), 0.002, 0.5, 7);
    psim.run(40);
    md::System gathered = psim.gather_global();
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      const Vec3 d = serial.system().box().minimum_image(
          serial.system().x[static_cast<std::size_t>(id)], gathered.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-8);
    }
  });
}

TEST(Halo, GhostCountMatchesShellEstimate) {
  // Ghosts exist only across rank boundaries. Two ranks split one
  // dimension, so in a homogeneous crystal each rank's ghosts are close to
  // that dimension's two slabs, rho * 2g * (cross-section); the unsplit
  // dimensions are reached through periodic image shifts.
  md::System global = make_argon(4, 4, 4, 0.0, 1);
  const double rho = global.nlocal() / global.box().volume();

  comm::test::make(comm::TransportKind::Thread, 2)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, lj(), 0.002, 0.5, 1);
    psim.setup();
    const RankGrid& grid = psim.domain().grid();
    int split = -1;
    for (int d = 0; d < 3; ++d) {
      if (grid.n(d) > 1) {
        EXPECT_EQ(split, -1) << "2 ranks split more than one dimension";
        split = d;
      }
    }
    ASSERT_GE(split, 0);
    const Vec3 sub = psim.domain().lengths();
    const double g = 7.0;  // rcut + skin
    const double cross = sub.x * sub.y * sub.z / sub[split];
    const double expected = rho * 2 * g * cross;
    EXPECT_NEAR(psim.local().nghost(), expected, 0.35 * expected);

    // Every step, only the split dimension's up and down legs forward
    // positions and reverse forces: four messages per rank. The 0 K
    // crystal never rebuilds, so no migration or ghost messages join them.
    constexpr int kSteps = 10;
    const std::uint64_t before = c.traffic().messages;
    psim.run(kSteps);
    EXPECT_EQ(c.traffic().messages - before, 4U * kSteps);
  });
}

TEST(ParallelDynamics, LangevinHeatsInParallel) {
  md::System global = make_argon(3, 3, 3, 10.0, 9);
  comm::test::make(comm::TransportKind::Thread, 4)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, lj(), 0.002, 0.5, 9);
    psim.integrator().set_langevin(md::LangevinParams{120.0, 0.05});
    psim.run(400);
    const auto g = psim.global_state();
    EXPECT_NEAR(g.temperature, 120.0, 25.0);
    EXPECT_EQ(g.natoms, global.nlocal());
  });
}

TEST(MigrationStress, HotLiquidManyRebuildsConservesEverything) {
  md::System global = make_argon(3, 3, 3, 400.0, 13);
  comm::test::make(comm::TransportKind::Thread, 8)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, lj(), 0.004, 0.25, 13);
    psim.integrator().set_langevin(md::LangevinParams{400.0, 0.1});
    psim.run(300);
    const auto g = psim.global_state();
    EXPECT_EQ(g.natoms, global.nlocal());
    // Between reneighborings atoms may drift up to skin/2 past their
    // domain face; anything further means migration is broken.
    const Vec3 lo = psim.domain().lo();
    const Vec3 hi = psim.domain().hi();
    const double slack = 0.5 * 0.25 + 1e-12;
    for (int i = 0; i < psim.local().nlocal(); ++i) {
      const Vec3 w = psim.local().box().wrap(psim.local().x[i]);
      for (int d = 0; d < 3; ++d) {
        const double L = psim.local().box().length(d);
        // Distance outside [lo, hi) along d, periodic-aware.
        double outside = 0.0;
        if (w[d] < lo[d]) outside = std::min(lo[d] - w[d], w[d] + L - hi[d]);
        if (w[d] >= hi[d]) outside = std::min(w[d] - hi[d], lo[d] + L - w[d]);
        EXPECT_LE(outside, slack) << "atom " << i << " dim " << d;
      }
    }
  });
}

TEST(GatherGlobal, VelocitiesSurviveTheRoundTrip) {
  md::System global = make_argon(4, 4, 4, 55.0, 17);
  comm::test::make(comm::TransportKind::Thread, 4)
      ->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, lj(), 0.002, 0.5, 17);
    psim.setup();
    md::System gathered = psim.gather_global();
    ASSERT_EQ(gathered.nlocal(), global.nlocal());
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      EXPECT_DOUBLE_EQ(gathered.v[i].x,
                       global.v[static_cast<std::size_t>(id)].x);
      EXPECT_DOUBLE_EQ(gathered.v[i].y,
                       global.v[static_cast<std::size_t>(id)].y);
    }
  });
}

}  // namespace
}  // namespace ember::parallel
