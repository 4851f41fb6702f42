#pragma once

// Tests-only SNAP force reference: the paper's Listing-1 baseline. Per
// atom i it computes the descriptors B (compute_zi + compute_bi), the
// site energy, and for every neighbor k dE_i/dr_k = sum_l beta_eff[l]
// dB_l/dr_k through TestSNAP's full-range U -> Z -> dU -> dB pipeline
// (listing1_deidrj), with the effective coefficients beta + alpha B. Z
// storage is O(J^5) and the dB pass is O(J^5) per neighbor: slow, and
// independent of the adjoint Y / half-range / SIMD machinery SnapPotential
// runs, which makes it the parity oracle for that production kernel. B
// comes from compute_ui pinned to the width-1 scalar table, so on a vector
// host even the shared first stage runs at a different lane width than
// SnapPotential's.

#include <vector>

#include "md/neighbor.hpp"
#include "md/system.hpp"
#include "scoped_simd_env.hpp"
#include "snap/snap_potential.hpp"
#include "snap/testsnap.hpp"

namespace ember::snap::reference {

struct ForceRun {
  double energy = 0.0;
  double virial = 0.0;
  std::vector<Vec3> f;  // one entry per local atom
};

// Serial reference evaluation over a periodic system (no ghosts), with
// the same neighbor gathering and sign conventions as SnapPotential.
inline ForceRun reference_forces(const SnapModel& model,
                                 const md::System& sys) {
  const double rcut = model.params.rcut;
  md::NeighborList nl(rcut, 0.3);
  nl.build(sys);
  Bispectrum bi = [&] {
    ScopedSimdEnv env("scalar");
    return Bispectrum(model.params);
  }();
  ForceRun out;
  out.f.assign(static_cast<std::size_t>(sys.nlocal()), Vec3{});
  std::vector<Vec3> rij;
  std::vector<int> jlist;
  std::vector<double> beta_eff;
  for (int i = 0; i < sys.nlocal(); ++i) {
    rij.clear();
    jlist.clear();
    for (const auto& en : nl.neighbors(i)) {
      const Vec3 d = sys.x[en.j] + en.shift - sys.x[i];
      if (d.norm2() < rcut * rcut) {
        rij.push_back(d);
        jlist.push_back(en.j);
      }
    }
    bi.compute_ui(rij, {});
    bi.compute_zi();
    bi.compute_bi();
    out.energy += model.site_energy(bi.blist());
    model.effective_beta(bi.blist(), beta_eff);
    const std::vector<Vec3> de =  // dE_i/dr_k
        listing1_deidrj(model.params, rij, {}, beta_eff);
    for (std::size_t m = 0; m < rij.size(); ++m) {
      out.f[jlist[m]] -= de[m];
      out.f[i] += de[m];
      out.virial += -dot(rij[m], de[m]);
    }
  }
  return out;
}

}  // namespace ember::snap::reference
