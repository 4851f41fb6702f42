#include "check/invariants.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ember::check {

namespace {

[[nodiscard]] std::string prefix(const char* stage, long step) {
  return "[check] " + std::string(stage) + " @ step " + std::to_string(step) +
         ": ";
}

[[nodiscard]] std::string vec_str(const Vec3& v) {
  return "(" + std::to_string(v.x) + "," + std::to_string(v.y) + "," +
         std::to_string(v.z) + ")";
}

// std::to_string(double) is fixed-precision and renders small drifts as
// 0.000000; energies and tolerances need scientific notation.
[[nodiscard]] std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

[[nodiscard]] bool finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

InvariantViolation::InvariantViolation(const char* stage, long step,
                                       const std::string& what)
    : Error(prefix(stage, step) + what), stage_(stage), step_(step) {}

void check_finite(std::span<const Vec3> values, int count,
                  const char* array_name, const char* stage, long step) {
  for (int i = 0; i < count; ++i) {
    if (!finite(values[static_cast<std::size_t>(i)])) {
      throw InvariantViolation(
          stage, step,
          "non-finite " + std::string(array_name) + " on atom " +
              std::to_string(i) + " " +
              vec_str(values[static_cast<std::size_t>(i)]));
    }
  }
}

void check_neighbor_list(const md::NeighborList& nl, const md::System& sys,
                         const char* stage, long step) {
  const int nlocal = sys.nlocal();
  const int ntotal = sys.ntotal();
  if (nl.num_atoms() != nlocal) {
    throw InvariantViolation(
        stage, step,
        "neighbor list covers " + std::to_string(nl.num_atoms()) +
            " atoms but the system owns " + std::to_string(nlocal));
  }
  for (int i = 0; i < nlocal; ++i) {
    for (const auto& en : nl.neighbors(i)) {
      if (en.j < 0 || en.j >= ntotal) {
        throw InvariantViolation(
            stage, step,
            "neighbor index " + std::to_string(en.j) + " of atom " +
                std::to_string(i) + " outside [0, " + std::to_string(ntotal) +
                ")");
      }
      if (en.j == i && en.shift.norm2() == 0.0) {
        throw InvariantViolation(
            stage, step,
            "atom " + std::to_string(i) + " lists itself with zero shift");
      }
      if (en.j >= nlocal) continue;  // ghost rows do not exist locally
      // Local-local pairs must mirror with the opposite periodic shift.
      bool mirrored = false;
      for (const auto& back : nl.neighbors(en.j)) {
        if (back.j == i && back.shift.x == -en.shift.x &&
            back.shift.y == -en.shift.y && back.shift.z == -en.shift.z) {
          mirrored = true;
          break;
        }
      }
      if (!mirrored) {
        throw InvariantViolation(
            stage, step,
            "asymmetric neighbor pair: atom " + std::to_string(i) +
                " lists atom " + std::to_string(en.j) + " (shift " +
                vec_str(en.shift) + ") but not vice versa");
      }
    }
  }
}

void check_no_ghosts(const md::System& sys, const char* stage, long step) {
  if (sys.ntotal() != sys.nlocal()) {
    throw InvariantViolation(
        stage, step,
        "driver owns every atom but " + std::to_string(sys.nghost()) +
            " ghost(s) survive the exchange (nlocal " +
            std::to_string(sys.nlocal()) + ", ntotal " +
            std::to_string(sys.ntotal()) + ")");
  }
}

void check_atom_conservation(long have, long expected, const char* stage,
                             long step) {
  if (have != expected) {
    throw InvariantViolation(
        stage, step,
        "atom count not conserved: have " + std::to_string(have) +
            ", expected " + std::to_string(expected));
  }
}

void check_ghost_legs(std::span<const GhostLeg> legs, int rank, int nghost,
                      const char* stage, long step) {
  long sum = 0;
  for (const GhostLeg& leg : legs) {
    if (leg.send_to == rank || leg.recv_from == rank) {
      throw InvariantViolation(stage, step,
                               "exchange leg of rank " + std::to_string(rank) +
                                   " sends to or receives from itself");
    }
    if (leg.ghost_count < 0) {
      throw InvariantViolation(stage, step,
                               "negative ghost count " +
                                   std::to_string(leg.ghost_count) +
                                   " on an exchange leg");
    }
    sum += leg.ghost_count;
  }
  if (sum != nghost) {
    throw InvariantViolation(
        stage, step,
        "ghost bookkeeping mismatch: exchange legs recorded " +
            std::to_string(sum) + " ghosts, system holds " +
            std::to_string(nghost));
  }
}

void DriftTripwire::observe(double total_energy, long step) const {
  if (!armed_) return;
  const double scale = std::max(std::abs(reference_), 1.0);
  const double drift = std::abs(total_energy - reference_);
  if (!std::isfinite(total_energy) || drift > tol_ * scale) {
    throw InvariantViolation(
        "energy", step,
        "total energy drifted to " + sci(total_energy) + " from reference " +
            sci(reference_) + " (relative drift " + sci(drift / scale) +
            " > tolerance " + sci(tol_) + ")");
  }
}

double drift_tolerance_from_env() {
  const char* env = std::getenv("EMBER_CHECK_DRIFT_TOL");
  if (env == nullptr) return 0.0;
  char* end = nullptr;
  const double tol = std::strtod(env, &end);
  if (end == env || !std::isfinite(tol) || tol <= 0.0) return 0.0;
  return tol;
}

}  // namespace ember::check
