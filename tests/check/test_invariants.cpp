// Injected-fault tests for the src/check invariant layer: each test
// breaks one invariant on purpose (NaN force, asymmetric neighbor pair,
// ghost-count mismatch, energy drift) and asserts the checked build
// reports it with the offending atom index and stage name.
//
// The check_* functions are exercised directly in every configuration;
// the StepLoop stage-boundary hooks additionally fire end-to-end when
// the tree is configured with -DEMBER_CHECKED=ON (the CI sanitizer
// matrix runs that way).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "md/system.hpp"
#include "ref/pair_lj.hpp"

namespace ember::md {

// Test-only backdoor declared as a friend in NeighborList: lets the
// fault-injection tests corrupt a freshly built list.
struct NeighborListTestAccess {
  static std::vector<NeighborList::Entry>& entries(NeighborList& nl) {
    return nl.entries_;
  }
};

}  // namespace ember::md

namespace ember::check {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

md::System make_crystal(int cells = 2) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = cells;
  return md::build_lattice(spec, 39.948);
}

// ---- finite scans ---------------------------------------------------------

TEST(CheckFinite, PassesOnFiniteArrays) {
  const std::vector<Vec3> f = {{1, 2, 3}, {-4, 5, -6}};
  EXPECT_NO_THROW(check_finite(f, 2, "force", "force", 7));
}

TEST(CheckFinite, ReportsNaNWithAtomIndexAndStage) {
  std::vector<Vec3> f(5);
  f[3] = {0.0, kNaN, 0.0};
  try {
    check_finite(f, 5, "force", "force", 42);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.stage().c_str(), "force");
    EXPECT_EQ(e.step(), 42);
    EXPECT_NE(std::string(e.what()).find("atom 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("force"), std::string::npos);
  }
}

TEST(CheckFinite, ReportsInfinitePositions) {
  std::vector<Vec3> x(3);
  x[0] = {kInf, 0.0, 0.0};
  EXPECT_THROW(check_finite(x, 3, "position", "integrate", 0),
               InvariantViolation);
}

TEST(CheckFinite, IgnoresGhostTailBeyondCount) {
  std::vector<Vec3> f(4);
  f[3] = {kNaN, 0.0, 0.0};  // ghost slot: not scanned
  EXPECT_NO_THROW(check_finite(f, 3, "force", "force", 0));
}

// ---- neighbor-list validation ---------------------------------------------

TEST(CheckNeighborList, FreshListPasses) {
  md::System sys = make_crystal();
  md::NeighborList nl(8.0, 0.4);
  nl.build(sys);
  EXPECT_NO_THROW(check_neighbor_list(nl, sys, "neigh", 0));
}

TEST(CheckNeighborList, DetectsAsymmetricPair) {
  md::System sys = make_crystal();
  md::NeighborList nl(8.0, 0.4);
  nl.build(sys);
  // Break symmetry: redirect one entry of atom 0's row to a different
  // local atom, so the mirror entry no longer exists.
  auto& entries = md::NeighborListTestAccess::entries(nl);
  ASSERT_FALSE(entries.empty());
  const int victim = entries[0].j;
  entries[0].j = (victim + 1) % sys.nlocal() == 0
                     ? (victim + 2) % sys.nlocal()
                     : (victim + 1) % sys.nlocal();
  try {
    check_neighbor_list(nl, sys, "neigh", 9);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.stage().c_str(), "neigh");
    EXPECT_NE(std::string(e.what()).find("asymmetric"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("atom 0"), std::string::npos)
        << e.what();
  }
}

TEST(CheckNeighborList, DetectsOutOfRangeIndex) {
  md::System sys = make_crystal();
  md::NeighborList nl(8.0, 0.4);
  nl.build(sys);
  md::NeighborListTestAccess::entries(nl)[0].j = sys.ntotal() + 17;
  try {
    check_neighbor_list(nl, sys, "neigh", 3);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos)
        << e.what();
  }
}

TEST(CheckNeighborList, DetectsSelfPairWithZeroShift) {
  md::System sys = make_crystal();
  md::NeighborList nl(8.0, 0.4);
  nl.build(sys);
  auto& entries = md::NeighborListTestAccess::entries(nl);
  entries[0].j = 0;  // first row belongs to atom 0
  entries[0].shift = Vec3{};
  EXPECT_THROW(check_neighbor_list(nl, sys, "neigh", 0), InvariantViolation);
}

// ---- ghost bookkeeping ----------------------------------------------------

TEST(CheckGhosts, SerialSystemHasNone) {
  md::System sys = make_crystal();
  EXPECT_NO_THROW(check_no_ghosts(sys, "exchange", 0));
  sys.add_ghost({1.0, 2.0, 3.0}, 999);
  try {
    check_no_ghosts(sys, "exchange", 5);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.stage().c_str(), "exchange");
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(CheckGhosts, LegBookkeepingMustMatchHalo) {
  // Rank 1 of a 2 x 2 grid: the x legs talk to rank 0, the y legs to 3.
  const GhostLeg legs_ok[4] = {{0, 0, 3}, {0, 0, 2}, {3, 3, 1}, {3, 3, 0}};
  EXPECT_NO_THROW(check_ghost_legs(legs_ok, 1, 6, "exchange", 0));
  const GhostLeg legs_bad[4] = {{0, 0, 3}, {0, 0, 2}, {3, 3, 1}, {3, 3, 1}};
  // claims 7, system holds 6
  EXPECT_THROW(check_ghost_legs(legs_bad, 1, 6, "exchange", 0),
               InvariantViolation);
  const GhostLeg legs_neg[4] = {{0, 0, 3}, {0, 0, -1}, {3, 3, 1}, {3, 3, 0}};
  EXPECT_THROW(check_ghost_legs(legs_neg, 1, 3, "exchange", 0),
               InvariantViolation);
}

TEST(CheckGhosts, LegToTheSendingRankIsRejected) {
  // A dimension one rank holds has no legs: its images are shifts, so a
  // leg that sends to (or receives from) its own rank is a bookkeeping bug
  // even when the counts add up.
  const GhostLeg self_send[2] = {{1, 0, 2}, {0, 0, 1}};
  try {
    check_ghost_legs(self_send, 1, 3, "exchange", 4);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("itself"), std::string::npos);
  }
  const GhostLeg self_recv[2] = {{0, 0, 2}, {0, 1, 1}};
  EXPECT_THROW(check_ghost_legs(self_recv, 1, 3, "exchange", 0),
               InvariantViolation);
  EXPECT_NO_THROW(check_ghost_legs(std::span<const GhostLeg>{}, 0, 0,
                                   "exchange", 0));
}

TEST(CheckConservation, MismatchedAtomCountThrows) {
  EXPECT_NO_THROW(check_atom_conservation(1000, 1000, "exchange", 0));
  try {
    check_atom_conservation(999, 1000, "exchange", 12);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("999"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1000"), std::string::npos);
  }
}

// ---- drift tripwire -------------------------------------------------------

TEST(DriftTripwire, TripsBeyondTolerance) {
  DriftTripwire wire;
  EXPECT_FALSE(wire.armed());
  wire.observe(1e9, 0);  // disarmed: anything goes
  wire.arm(-250.0, 1e-4);
  ASSERT_TRUE(wire.armed());
  EXPECT_NO_THROW(wire.observe(-250.0 + 0.02, 1));   // within 250*1e-4
  EXPECT_THROW(wire.observe(-250.0 + 0.05, 2), InvariantViolation);
  EXPECT_THROW(wire.observe(kNaN, 3), InvariantViolation);
}

TEST(DriftTripwire, ToleranceComesFromEnvironment) {
  ::setenv("EMBER_CHECK_DRIFT_TOL", "2.5e-4", 1);
  EXPECT_DOUBLE_EQ(drift_tolerance_from_env(), 2.5e-4);
  ::setenv("EMBER_CHECK_DRIFT_TOL", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(drift_tolerance_from_env(), 0.0);
  ::setenv("EMBER_CHECK_DRIFT_TOL", "-1e-3", 1);
  EXPECT_DOUBLE_EQ(drift_tolerance_from_env(), 0.0);
  ::unsetenv("EMBER_CHECK_DRIFT_TOL");
  EXPECT_DOUBLE_EQ(drift_tolerance_from_env(), 0.0);
}

// ---- StepLoop stage-boundary hooks (checked builds only) ------------------
//
// These run the real pipeline and prove the hooks fire where the fault
// happens. They are compiled only under EMBER_CHECKED because the
// default build compiles the hooks out (that IS the contract).
#if defined(EMBER_CHECKED)

// A potential that turns one force component into NaN after a set number
// of calls — the classic "kernel went bad mid-run" failure.
class NaNAfter : public md::PairPotential {
 public:
  NaNAfter(std::shared_ptr<md::PairPotential> inner, int healthy_calls)
      : inner_(std::move(inner)), remaining_(healthy_calls) {}

  [[nodiscard]] double cutoff() const override { return inner_->cutoff(); }
  [[nodiscard]] const char* name() const override { return "nan-after"; }

  md::EnergyVirial compute(const md::ComputeContext& ctx, md::System& sys,
                           const md::NeighborList& nl) override {
    const md::EnergyVirial ev = inner_->compute(ctx, sys, nl);
    if (remaining_-- <= 0) sys.f[1].y = kNaN;
    return ev;
  }

 private:
  std::shared_ptr<md::PairPotential> inner_;
  int remaining_;
};

md::Simulation make_checked_sim(std::shared_ptr<md::PairPotential> pot) {
  md::System sys = make_crystal();
  Rng rng(7);
  sys.thermalize(40.0, rng);
  return md::Simulation(std::move(sys), std::move(pot), 0.002, 0.4, 7);
}

TEST(CheckedStepLoop, NaNForceAbortsTheRunWithStageAndAtom) {
  auto lj = std::make_shared<ref::PairLJ>(0.0104, 3.4, 8.0);
  md::Simulation sim = make_checked_sim(
      std::make_shared<NaNAfter>(lj, /*healthy_calls=*/3));
  try {
    sim.run(10);
    FAIL() << "expected InvariantViolation from the force-stage hook";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.stage().c_str(), "force");
    EXPECT_NE(std::string(e.what()).find("atom 1"), std::string::npos)
        << e.what();
  }
}

TEST(CheckedStepLoop, HealthyRunPassesEveryHook) {
  auto lj = std::make_shared<ref::PairLJ>(0.0104, 3.4, 8.0);
  md::Simulation sim = make_checked_sim(lj);
  EXPECT_NO_THROW(sim.run(25));
}

TEST(CheckedStepLoop, DriftTripwireArmsFromEnvAndTrips) {
  // A thermostat injects energy on purpose; with a tiny NVE tolerance
  // armed, the tripwire must fire within a few steps.
  ::setenv("EMBER_CHECK_DRIFT_TOL", "1e-12", 1);
  auto lj = std::make_shared<ref::PairLJ>(0.0104, 3.4, 8.0);
  md::Simulation sim = make_checked_sim(lj);
  sim.integrator().set_langevin(md::LangevinParams{300.0, 0.1});
  EXPECT_THROW(sim.run(50), InvariantViolation);
  ::unsetenv("EMBER_CHECK_DRIFT_TOL");
}

#endif  // EMBER_CHECKED

}  // namespace
}  // namespace ember::check
