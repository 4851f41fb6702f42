// Tests for the periodic box and neighbor-list construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"

namespace ember::md {
namespace {

TEST(Box, WrapAndMinimumImage) {
  Box box(10.0, 20.0, 30.0);
  const Vec3 w = box.wrap({-1.0, 25.0, 61.0});
  EXPECT_NEAR(w.x, 9.0, 1e-12);
  EXPECT_NEAR(w.y, 5.0, 1e-12);
  EXPECT_NEAR(w.z, 1.0, 1e-12);

  const Vec3 d = box.minimum_image({9.5, 0.0, 0.0}, {0.5, 0.0, 0.0});
  EXPECT_NEAR(d.x, 1.0, 1e-12);  // through the boundary, not -9
  EXPECT_NEAR(box.minimum_image({0, 0, 0}, {5.0, 0, 0}).x, -5.0, 1e-12);
}

TEST(Box, NonPeriodicDimension) {
  Box box(10, 10, 10, {true, true, false});
  const Vec3 w = box.wrap({11.0, 11.0, 11.0});
  EXPECT_NEAR(w.x, 1.0, 1e-12);
  EXPECT_NEAR(w.z, 11.0, 1e-12);  // z untouched
  EXPECT_NEAR(box.minimum_image({0, 0, 0}, {0, 0, 9}).z, 9.0, 1e-12);
}

// Reference N^2-over-images neighbor count for validation.
int brute_count(const System& sys, int i, double rcut) {
  int count = 0;
  const Box& box = sys.box();
  for (int j = 0; j < sys.nlocal(); ++j) {
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        for (int sz = -1; sz <= 1; ++sz) {
          if (j == i && sx == 0 && sy == 0 && sz == 0) continue;
          const Vec3 shift{sx * box.length(0), sy * box.length(1),
                           sz * box.length(2)};
          if ((sys.x[j] + shift - sys.x[i]).norm() < rcut) ++count;
        }
      }
    }
  }
  return count;
}

TEST(NeighborList, MatchesBruteForceOnRandomConfig) {
  Rng rng(1);
  Box box(14.0, 15.0, 16.0);
  System sys = random_packing(box, 120, 1.2, 12.011, rng);

  const double rcut = 3.5;
  NeighborList nl(rcut, 0.0);  // zero skin: exact cutoff comparison
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    const auto row = nl.neighbors(i);
    EXPECT_EQ(static_cast<int>(row.size()), brute_count(sys, i, rcut))
        << "atom " << i;
    // All listed distances really are within the cutoff.
    for (const auto& en : row) {
      const double d = (sys.x[en.j] + en.shift - sys.x[i]).norm();
      EXPECT_LT(d, rcut);
    }
  }
}

TEST(NeighborList, SmallBoxFallsBackToImages) {
  // Box smaller than 3 cells: brute-force path with multi-image search.
  Rng rng(2);
  Box box(5.0, 5.0, 5.0);
  System sys = random_packing(box, 20, 1.0, 12.011, rng);
  NeighborList nl(2.4, 0.0);
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    EXPECT_EQ(static_cast<int>(nl.neighbors(i).size()),
              brute_count(sys, i, 2.4));
  }
}

TEST(NeighborList, GhostsAcrossAnOpenDimensionMatchPeriodicImages) {
  // A parallel rank's view of the box: x is open and reached through
  // pre-shifted ghost copies, y and z are periodic and reached through
  // image shifts. The list must hold exactly the displacements of the
  // fully periodic build, on the cell path (long y, z) and on the
  // brute-force path (y, z shorter than three list radii).
  const std::pair<Vec3, double> cases[] = {{{14.0, 15.0, 16.0}, 3.5},
                                           {{14.0, 6.0, 6.0}, 2.4}};
  for (const auto& [len, rcut] : cases) {
    Rng rng(5);
    const System whole =
        random_packing(Box(len.x, len.y, len.z), 60, 1.0, 12.011, rng);
    NeighborList ref(rcut, 0.0);
    ref.build(whole);

    System sys(Box(len.x, len.y, len.z, {false, true, true}), 12.011);
    for (int i = 0; i < whole.nlocal(); ++i) sys.add_atom(whole.x[i]);
    for (int i = 0; i < whole.nlocal(); ++i) {
      for (const double s : {-len.x, len.x}) {
        const Vec3 g = whole.x[i] + Vec3{s, 0.0, 0.0};
        if (g.x > -rcut && g.x < len.x + rcut) sys.add_ghost(g, i);
      }
    }
    NeighborList nl(rcut, 0.0);
    nl.build(sys, /*use_ghosts=*/true);
    for (int i = 0; i < sys.nlocal(); ++i) {
      const auto want = ref.neighbors(i);
      const auto got = nl.neighbors(i);
      ASSERT_EQ(got.size(), want.size()) << "atom " << i << " box y " << len.y;
      for (const auto& en : got) {
        const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
        EXPECT_EQ(en.shift.x, 0.0) << "x is open: no image shift";
        const bool found = std::any_of(want.begin(), want.end(), [&](auto& w) {
          const Vec3 dw = whole.x[w.j] + w.shift - whole.x[i];
          return w.j == sys.id[en.j] && (d - dw).norm() < 1e-9;
        });
        EXPECT_TRUE(found) << "atom " << i << " lists id " << sys.id[en.j];
      }
    }
  }
}

TEST(NeighborList, FullListIsSymmetric) {
  Rng rng(3);
  Box box(12.0, 12.0, 12.0);
  System sys = random_packing(box, 60, 1.2, 12.011, rng);
  NeighborList nl(3.0, 0.4);
  nl.build(sys);
  // Count (i -> j) occurrences; each unordered pair must appear the same
  // number of times from both sides.
  std::multiset<std::pair<int, int>> pairs;
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (const auto& en : nl.neighbors(i)) pairs.insert({i, en.j});
  }
  for (const auto& [i, j] : pairs) {
    EXPECT_EQ(pairs.count({i, j}), pairs.count({j, i}));
  }
}

TEST(NeighborList, RebuildTriggersOnDisplacement) {
  Rng rng(4);
  Box box(12, 12, 12);
  System sys = random_packing(box, 30, 1.5, 12.011, rng);
  NeighborList nl(3.0, 0.6);
  nl.build(sys);
  EXPECT_FALSE(nl.needs_rebuild(sys));
  sys.x[0] += Vec3{0.31, 0.0, 0.0};  // > skin/2
  EXPECT_TRUE(nl.needs_rebuild(sys));
}

TEST(NeighborList, DiamondCoordination) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 3;
  System sys = build_lattice(spec, 12.011);
  EXPECT_EQ(sys.nlocal(), 8 * 27);

  NeighborList nl(1.8, 0.0);  // first shell only (bond = 1.545 A)
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 4u) << "atom " << i;
  }
}

TEST(NeighborList, Bc8CoordinationIsFour) {
  // BC8 is fourfold-coordinated like diamond (1 short + 3 longer bonds).
  LatticeSpec spec;
  spec.kind = LatticeKind::Bc8;
  spec.a = 4.46;  // ~carbon BC8 scale at high pressure
  spec.nx = spec.ny = spec.nz = 2;
  System sys = build_lattice(spec, 12.011);
  EXPECT_EQ(sys.nlocal(), 16 * 8);

  NeighborList nl(2.1, 0.0);
  nl.build(sys);
  for (int i = 0; i < sys.nlocal(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 4u) << "atom " << i;
  }
}

TEST(Lattice, CountsAndDensities) {
  for (auto [kind, per_cell] :
       {std::pair{LatticeKind::SimpleCubic, 1}, {LatticeKind::Bcc, 2},
        {LatticeKind::Fcc, 4}, {LatticeKind::Diamond, 8},
        {LatticeKind::Bc8, 16}}) {
    LatticeSpec spec;
    spec.kind = kind;
    spec.nx = 2;
    spec.ny = 3;
    spec.nz = 4;
    EXPECT_EQ(lattice_atom_count(spec), per_cell * 24);
    EXPECT_EQ(build_lattice(spec, 12.011).nlocal(), per_cell * 24);
  }
}

TEST(Lattice, RandomPackingRespectsMinimumSeparation) {
  Rng rng(5);
  Box box(10, 10, 10);
  System sys = random_packing(box, 50, 1.4, 12.011, rng);
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (int j = i + 1; j < sys.nlocal(); ++j) {
      EXPECT_GE(box.minimum_image(sys.x[i], sys.x[j]).norm(), 1.4);
    }
  }
}

}  // namespace
}  // namespace ember::md
