#pragma once

// Runtime invariant layer for the MD pipeline (the "checked build").
//
// A billion-atom trajectory is only as trustworthy as its weakest silent
// failure mode: one NaN force, one asymmetric neighbor pair or one lost
// ghost atom corrupts weeks of simulation without crashing anything. The
// checks in this library make those failures loud, early and attributable
// — every violation names the stage, the step and the offending atom.
//
// The layer has two faces:
//
//   * Plain functions (check_finite, check_neighbor_list, ...) that are
//     always compiled into ember_check and can be called directly — the
//     injected-fault tests under tests/check/ exercise them in every
//     build configuration.
//   * The EMBER_CHECK(...) hook macro used at StepLoop stage boundaries.
//     It expands to its argument only when the tree is configured with
//     -DEMBER_CHECKED=ON; the default build compiles every hook out
//     entirely, so Release pays zero cycles (the bench_headline contract).
//
// Violations throw check::InvariantViolation (an ember::Error), so a
// checked run aborts with a message like
//   [check] force @ step 812: non-finite force on atom 4711 (nan,0,0)
// instead of drifting on with corrupted state.

#include <span>
#include <string>

#include "common/error.hpp"
#include "common/vec3.hpp"
#include "md/neighbor.hpp"
#include "md/system.hpp"

namespace ember::check {

class InvariantViolation : public Error {
 public:
  InvariantViolation(const char* stage, long step, const std::string& what);

  [[nodiscard]] const std::string& stage() const { return stage_; }
  [[nodiscard]] long step() const { return step_; }

 private:
  std::string stage_;
  long step_;
};

// NaN/Inf scan over the first `count` entries of `values` (positions or
// forces; `array_name` labels the report). Throws naming the first bad
// atom index and its value.
void check_finite(std::span<const Vec3> values, int count,
                  const char* array_name, const char* stage, long step);

// Structural validation of a freshly built neighbor list:
//   * the list covers exactly sys.nlocal() atoms,
//   * every neighbor index j lies in [0, sys.ntotal()),
//   * a self-pair (j == i) carries a nonzero periodic shift,
//   * every local-local pair is symmetric: (i -> j, shift) implies
//     (j -> i, -shift). Pairs whose j is a ghost copy have no local
//     mirror row and are bounds-checked only.
// Throws naming the first offending pair.
void check_neighbor_list(const md::NeighborList& nl, const md::System& sys,
                         const char* stage, long step);

// Serial/batched drivers own every atom: any ghost after an exchange is a
// bookkeeping bug. Throws if sys.ntotal() != sys.nlocal().
void check_no_ghosts(const md::System& sys, const char* stage, long step);

// Conservation check for exchanges that may move atoms between owners:
// `have` is the observed global (or per-driver) atom count, `expected`
// the count captured at setup. Throws on mismatch.
void check_atom_conservation(long have, long expected, const char* stage,
                             long step);

// One halo leg of a parallel exchange, as the checks see it.
struct GhostLeg {
  int send_to = -1;
  int recv_from = -1;
  int ghost_count = 0;
};

// Halo bookkeeping: every leg crosses to another rank (a dimension one
// rank holds is reached through periodic shifts, never through a leg to
// `rank` itself), no count is negative, and the per-leg ghost counts add
// up to the ghosts actually appended to the system.
void check_ghost_legs(std::span<const GhostLeg> legs, int rank, int nghost,
                      const char* stage, long step);

// Energy-drift tripwire. Armed with a reference total energy and a
// relative tolerance; observe() throws once the total drifts further than
// tol * max(|reference|, 1). Disarmed by default — thermostatted runs
// change energy legitimately, so the tripwire only arms when the run is
// known to conserve (NVE) and a tolerance is configured.
class DriftTripwire {
 public:
  void arm(double reference_energy, double rel_tol) {
    reference_ = reference_energy;
    tol_ = rel_tol;
    armed_ = rel_tol > 0.0;
  }
  void disarm() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

  void observe(double total_energy, long step) const;

 private:
  double reference_ = 0.0;
  double tol_ = 0.0;
  bool armed_ = false;
};

// Tolerance for the StepLoop-embedded tripwire, read once from the
// EMBER_CHECK_DRIFT_TOL environment variable (relative drift, e.g. 1e-4);
// 0 (the default, or unset/unparsable) leaves the tripwire disarmed.
[[nodiscard]] double drift_tolerance_from_env();

}  // namespace ember::check

// Stage-boundary hook: expands to the statement under EMBER_CHECKED=ON,
// to nothing otherwise. Variadic so call arguments may contain commas.
#if defined(EMBER_CHECKED)
#define EMBER_CHECK(...) __VA_ARGS__
#else
#define EMBER_CHECK(...) ((void)0)
#endif
