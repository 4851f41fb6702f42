// Ablation studies of the MD engine's design choices (DESIGN.md §4):
//   (a) neighbor-list skin: rebuild frequency vs per-step list size;
//   (b) SNAP force algorithm: adjoint vs baseline across 2J (TestSNAP V3
//       vs V0 grind time);
//   (c) neighbor construction strategy: cell list vs brute force.

#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "ref/pair_lj.hpp"
#include "snap/testsnap.hpp"

int main() {
  using namespace ember;

  std::printf("== Ablation (a): neighbor skin on hot LJ argon ==\n\n");
  {
    TextTable table({"Skin [A]", "steps/s", "Neigh %", "Pair %"});
    for (const double skin : {0.1, 0.3, 0.6, 1.2, 2.0}) {
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Fcc;
      spec.a = 5.26;
      spec.nx = spec.ny = spec.nz = 4;
      md::System sys = md::build_lattice(spec, 39.948);
      Rng rng(1);
      sys.thermalize(200.0, rng);
      // Short cutoff keeps every skin in the cell-list regime (the
      // cell -> brute-force crossover is ablation (c)'s subject).
      md::Simulation sim(std::move(sys),
                         std::make_shared<ref::PairLJ>(0.0104, 3.4, 4.2),
                         0.003, skin, 1);
      sim.integrator().set_langevin(md::LangevinParams{200.0, 0.1});
      sim.setup();
      sim.reset_timers();
      WallTimer t;
      sim.run(400);
      const auto& timers = sim.timers();
      table.add_row(skin, 400.0 / t.seconds(),
                    100.0 * timers.fraction(TimerCategory::Neigh),
                    100.0 * timers.fraction(TimerCategory::Pair));
    }
    table.print();
    std::printf("\nSmall skins rebuild constantly; large skins inflate the\n"
                "pair loop — the classic optimum sits in between.\n");
  }

  std::printf("\n== Ablation (b): SNAP adjoint (TestSNAP V3) vs baseline "
              "(V0) across 2J ==\n\n");
  {
    TextTable table({"2J", "Components", "Adjoint [us/atom-step]",
                     "Baseline [us/atom-step]", "Baseline/Adjoint"});
    for (const int twojmax : {4, 6, 8}) {
      snap::SnapParams p;
      p.twojmax = twojmax;
      p.rcut = 4.7;
      snap::TestSnap ts(p, /*natoms=*/32, /*nnbor=*/26);
      const double adjoint =
          ts.grind_time(snap::TestSnapVariant::V3_Adjoint, 3);
      const double baseline =
          ts.grind_time(snap::TestSnapVariant::V0_Baseline, 3);
      table.add_row(twojmax, snap::SnapIndex(twojmax).num_b(), 1e6 * adjoint,
                    1e6 * baseline, baseline / adjoint);
    }
    table.print();
    std::printf("\nBoth variants pay the per-atom Z/Y coupling sweep; the\n"
                "baseline adds an O(J^5) dB pass per neighbor, which the\n"
                "adjoint replaces by an O(J^3) Y : dU contraction (the\n"
                "paper's §IV refactorization).\n");
  }

  std::printf("\n== Ablation (c): cell list vs brute-force neighbors ==\n\n");
  {
    TextTable table({"Atoms", "Box/rlist", "Cell build [ms]",
                     "Brute build [ms]"});
    for (const int reps : {4, 6, 8}) {
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Fcc;
      spec.a = 5.26;
      spec.nx = spec.ny = spec.nz = reps;
      md::System sys = md::build_lattice(spec, 39.948);
      // Cell path requires >= 3 cells per dim; time it via a cutoff that
      // qualifies, and the brute path via a System in a sub-3-cell box.
      md::NeighborList nl(4.0, 0.4);
      WallTimer t1;
      for (int r = 0; r < 5; ++r) nl.build(sys);
      const double t_cell = t1.seconds() / 5.0 * 1e3;

      // Brute force at the same cutoff: shrink the *list* box ratio by
      // using a large cutoff-equivalent (force the fallback) — emulate by
      // building with a cutoff that makes cells impossible.
      md::NeighborList nl2(sys.box().length(0) / 2.9 - 0.4, 0.4);
      WallTimer t2;
      for (int r = 0; r < 2; ++r) nl2.build(sys);
      const double t_brute = t2.seconds() / 2.0 * 1e3;
      table.add_row(sys.nlocal(), sys.box().length(0) / 4.4, t_cell,
                    t_brute);
    }
    table.print();
    std::printf("\n(The brute column uses a proportionally larger cutoff —\n"
                "the O(N^2) growth is the point, not the absolute pair.)\n");
  }
  return 0;
}
