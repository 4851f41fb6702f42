#include "testsnap.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace ember::snap {

namespace {

// ---- shared flat helpers (mirrors of the production kernel) -------------

struct DU3 {
  Cplx d[3];
};

double rootpq(const std::vector<double>& table, int tj, int p, int q) {
  return table[static_cast<std::size_t>(p) * (tj + 1) + q];
}

// rootpq table: entry p*(tj+1)+q = sqrt(p/q) for p, q in 1..tj.
std::vector<double> make_rootpq(int tj) {
  std::vector<double> table(static_cast<std::size_t>(tj + 1) * (tj + 1), 0.0);
  for (int p = 1; p <= tj; ++p) {
    for (int q = 1; q <= tj; ++q) {
      table[static_cast<std::size_t>(p) * (tj + 1) + q] =
          std::sqrt(static_cast<double>(p) / q);
    }
  }
  return table;
}

// Flat single-neighbor U recursion; when half_mb is set only columns with
// 2*mb <= j are produced (enough for the next level's half range).
// Two-term recursion over j (doubled): with row k' = ma, column k = mb,
//   mb >= 1:  U^j[ma,mb] = sqrt(ma/mb)      a  U^{j-1}[ma-1,mb-1]
//                        + sqrt((j-ma)/mb)  b  U^{j-1}[ma,  mb-1]
//   mb == 0:  U^j[ma,0]  = sqrt(ma/j)    (-b*) U^{j-1}[ma-1,0]
//                        + sqrt((j-ma)/j)  a*  U^{j-1}[ma,  0]
// (derived from the SU(2) monomial generating function; the production
// ui kernel runs the same recursion, pinned against closed-form Wigner
// matrices in tests/snap/test_symmetric_kernel.cpp).
void u_recur_flat(const SnapIndex& idx, const std::vector<double>& rp, int tj,
                  const CayleyKlein& ck, Cplx* u, bool half_mb) {
  const Cplx a = ck.a;
  const Cplx b = ck.b;
  const Cplx ac = conj(a);
  const Cplx mbc = -conj(b);
  u[0] = {1.0, 0.0};
  for (int j = 1; j <= tj; ++j) {
    const int blk = idx.u_block(j);
    const int pblk = idx.u_block(j - 1);
    const int cs = j + 1;
    const int ps = j;
    const int mb_max = half_mb ? j / 2 : j;
    for (int mb = 0; mb <= mb_max; ++mb) {
      const bool zc = (mb == 0);
      const Cplx cu = zc ? mbc : a;
      const Cplx cd = zc ? ac : b;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        Cplx v{};
        if (ma > 0) {
          v += rootpq(rp, tj, ma, denom) * (cu * u[pblk + (ma - 1) * ps + pcol]);
        }
        if (ma < j) {
          v += rootpq(rp, tj, j - ma, denom) * (cd * u[pblk + ma * ps + pcol]);
        }
        u[blk + ma * cs + mb] = v;
      }
    }
  }
}

// Flat derivative recursion producing d(w fc u)/dr into du; u gets the
// bare recursion values.
void du_recur_flat(const SnapIndex& idx, const std::vector<double>& rp, int tj,
                   const CayleyKlein& ck, double w, Cplx* u, DU3* du,
                   bool half_mb) {
  const Cplx a = ck.a;
  const Cplx b = ck.b;
  const Cplx ac = conj(a);
  const Cplx mbc = -conj(b);
  u[0] = {1.0, 0.0};
  du[0] = DU3{};
  for (int j = 1; j <= tj; ++j) {
    const int blk = idx.u_block(j);
    const int pblk = idx.u_block(j - 1);
    const int cs = j + 1;
    const int ps = j;
    const int mb_max = half_mb ? j / 2 : j;
    for (int mb = 0; mb <= mb_max; ++mb) {
      const bool zc = (mb == 0);
      const Cplx cu = zc ? mbc : a;
      const Cplx cd = zc ? ac : b;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        Cplx v{};
        DU3 dv{};
        if (ma > 0) {
          const double r = rootpq(rp, tj, ma, denom);
          const Cplx up = u[pblk + (ma - 1) * ps + pcol];
          const DU3& dup = du[pblk + (ma - 1) * ps + pcol];
          v += r * (cu * up);
          for (int d = 0; d < 3; ++d) {
            const Cplx dcu = zc ? -conj(ck.db[d]) : ck.da[d];
            dv.d[d] += r * (dcu * up + cu * dup.d[d]);
          }
        }
        if (ma < j) {
          const double r = rootpq(rp, tj, j - ma, denom);
          const Cplx up = u[pblk + ma * ps + pcol];
          const DU3& dup = du[pblk + ma * ps + pcol];
          v += r * (cd * up);
          for (int d = 0; d < 3; ++d) {
            const Cplx dcd = zc ? conj(ck.da[d]) : ck.db[d];
            dv.d[d] += r * (dcd * up + cd * dup.d[d]);
          }
        }
        u[blk + ma * cs + mb] = v;
        du[blk + ma * cs + mb] = dv;
      }
    }
  }
  // Apply the w * (dfc u + fc du) product rule in place.
  for (int j = 0; j <= tj; ++j) {
    const int blk = idx.u_block(j);
    const int cs = j + 1;
    const int mb_max = half_mb ? j / 2 : j;
    for (int mb = 0; mb <= mb_max; ++mb) {
      for (int ma = 0; ma <= j; ++ma) {
        const int e = blk + ma * cs + mb;
        for (int d = 0; d < 3; ++d) {
          du[e].d[d] = w * (ck.dfc[d] * u[e] + ck.fc * du[e].d[d]);
        }
      }
    }
  }
}

// Generic z-matrix element from a flat Utot.
Cplx z_elem(const SnapIndex& idx, const Cplx* utot, const ZTriple& t, int ma,
            int mb) {
  const int j1 = t.j1;
  const int j2 = t.j2;
  const int s = (j1 + j2 - t.j) / 2;
  const Cplx* u1 = utot + idx.u_block(j1);
  const Cplx* u2 = utot + idx.u_block(j2);
  const int s1 = j1 + 1;
  const int s2 = j2 + 1;
  Cplx z{};
  for (int ma1 = std::max(0, ma + s - j2); ma1 <= std::min(j1, ma + s); ++ma1) {
    const int ma2 = ma + s - ma1;
    const double cg_row = idx.cg(t, ma1, ma2);
    if (cg_row == 0.0) continue;
    Cplx rowsum{};
    for (int mb1 = std::max(0, mb + s - j2); mb1 <= std::min(j1, mb + s);
         ++mb1) {
      const int mb2 = mb + s - mb1;
      const double cg_col = idx.cg(t, mb1, mb2);
      if (cg_col == 0.0) continue;
      rowsum += cg_col * (u1[ma1 * s1 + mb1] * u2[ma2 * s2 + mb2]);
    }
    z += cg_row * rowsum;
  }
  return z;
}

// ---- jagged data structures (the V0/V1 "2012-style" layout) -------------

using JaggedU = std::vector<std::vector<Cplx>>;          // [j][(ma,mb)]
using JaggedDU = std::vector<std::vector<DU3>>;

void jagged_alloc(JaggedU& u, int tj) {
  u.resize(tj + 1);
  for (int j = 0; j <= tj; ++j) {
    u[j].assign(static_cast<std::size_t>(j + 1) * (j + 1), Cplx{});
  }
}

void jagged_alloc(JaggedDU& u, int tj) {
  u.resize(tj + 1);
  for (int j = 0; j <= tj; ++j) {
    u[j].assign(static_cast<std::size_t>(j + 1) * (j + 1), DU3{});
  }
}

void u_recur_jagged(const std::vector<double>& rp, int tj,
                    const CayleyKlein& ck, JaggedU& u) {
  const Cplx a = ck.a;
  const Cplx b = ck.b;
  const Cplx ac = conj(a);
  const Cplx mbc = -conj(b);
  u[0][0] = {1.0, 0.0};
  for (int j = 1; j <= tj; ++j) {
    const int cs = j + 1;
    const int ps = j;
    for (int mb = 0; mb <= j; ++mb) {
      const bool zc = (mb == 0);
      const Cplx cu = zc ? mbc : a;
      const Cplx cd = zc ? ac : b;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        Cplx v{};
        if (ma > 0) {
          v += rootpq(rp, tj, ma, denom) * (cu * u[j - 1][(ma - 1) * ps + pcol]);
        }
        if (ma < j) {
          v += rootpq(rp, tj, j - ma, denom) * (cd * u[j - 1][ma * ps + pcol]);
        }
        u[j][ma * cs + mb] = v;
      }
    }
  }
}

void du_recur_jagged(const std::vector<double>& rp, int tj,
                     const CayleyKlein& ck, double w, JaggedU& u,
                     JaggedDU& du) {
  u_recur_jagged(rp, tj, ck, u);
  // Recompute the derivative recursion level by level.
  du[0][0] = DU3{};
  const Cplx a = ck.a;
  const Cplx b = ck.b;
  for (int j = 1; j <= tj; ++j) {
    const int cs = j + 1;
    const int ps = j;
    for (int mb = 0; mb <= j; ++mb) {
      const bool zc = (mb == 0);
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        DU3 dv{};
        if (ma > 0) {
          const double r = rootpq(rp, tj, ma, denom);
          // Rebuild previous-level bare u on the fly from stored u: the
          // jagged layout stores the bare values already.
          const Cplx up = u[j - 1][(ma - 1) * ps + pcol];
          const DU3& dup = du[j - 1][(ma - 1) * ps + pcol];
          const Cplx cu = zc ? -conj(b) : a;
          for (int d = 0; d < 3; ++d) {
            const Cplx dcu = zc ? -conj(ck.db[d]) : ck.da[d];
            dv.d[d] += r * (dcu * up + cu * dup.d[d]);
          }
        }
        if (ma < j) {
          const double r = rootpq(rp, tj, j - ma, denom);
          const Cplx up = u[j - 1][ma * ps + pcol];
          const DU3& dup = du[j - 1][ma * ps + pcol];
          const Cplx cd = zc ? conj(a) : b;
          for (int d = 0; d < 3; ++d) {
            const Cplx dcd = zc ? conj(ck.da[d]) : ck.db[d];
            dv.d[d] += r * (dcd * up + cd * dup.d[d]);
          }
        }
        du[j][ma * cs + mb] = dv;
      }
    }
  }
  for (int j = 0; j <= tj; ++j) {
    for (std::size_t e = 0; e < u[j].size(); ++e) {
      for (int d = 0; d < 3; ++d) {
        du[j][e].d[d] = w * (ck.dfc[d] * u[j][e] + ck.fc * du[j][e].d[d]);
      }
    }
  }
}

Cplx z_elem_jagged(const SnapIndex& idx, const JaggedU& utot, const ZTriple& t,
                   int ma, int mb) {
  const int j1 = t.j1;
  const int j2 = t.j2;
  const int s = (j1 + j2 - t.j) / 2;
  const int s1 = j1 + 1;
  const int s2 = j2 + 1;
  Cplx z{};
  for (int ma1 = std::max(0, ma + s - j2); ma1 <= std::min(j1, ma + s); ++ma1) {
    const int ma2 = ma + s - ma1;
    const double cg_row = idx.cg(t, ma1, ma2);
    if (cg_row == 0.0) continue;
    Cplx rowsum{};
    for (int mb1 = std::max(0, mb + s - j2); mb1 <= std::min(j1, mb + s);
         ++mb1) {
      const int mb2 = mb + s - mb1;
      const double cg_col = idx.cg(t, mb1, mb2);
      if (cg_col == 0.0) continue;
      rowsum += cg_col * (utot[j1][ma1 * s1 + mb1] * utot[j2][ma2 * s2 + mb2]);
    }
    z += cg_row * rowsum;
  }
  return z;
}

// dB-path force for one neighbor given stored z matrices (flat or jagged
// access via a callable returning Z(triple)[e]).
template <typename ZAt, typename DUAt>
Vec3 db_force(const SnapIndex& idx, std::span<const double> beta, ZAt&& z_at,
              DUAt&& du_at) {
  Vec3 de;
  int l = 0;
  for (const auto& bt : idx.b_triples()) {
    struct Term {
      int za, zb, zt;
      double scale;
    };
    const Term terms[3] = {
        {bt.j1, bt.j2, bt.j, 1.0},
        {bt.j, bt.j2, bt.j1, static_cast<double>(bt.j + 1) / (bt.j1 + 1)},
        {bt.j, bt.j1, bt.j2, static_cast<double>(bt.j + 1) / (bt.j2 + 1)},
    };
    Vec3 db;
    for (const auto& term : terms) {
      const int zi = idx.z_index(term.za, term.zb, term.zt);
      const int n = term.zt + 1;
      Vec3 part;
      for (int e = 0; e < n * n; ++e) {
        const Cplx zv = z_at(zi, e);
        const DU3& du = du_at(term.zt, e);
        part.x += re_mul_conj(zv, du.d[0]);
        part.y += re_mul_conj(zv, du.d[1]);
        part.z += re_mul_conj(zv, du.d[2]);
      }
      db += term.scale * part;
    }
    de += beta[l] * db;
    ++l;
  }
  return de;
}

}  // namespace

std::vector<Vec3> listing1_deidrj(const SnapParams& params,
                                  std::span<const Vec3> rij,
                                  std::span<const double> wj,
                                  std::span<const double> beta) {
  const SnapIndex idx(params.twojmax);
  EMBER_REQUIRE(static_cast<int>(beta.size()) == idx.num_b(),
                "beta size must equal the number of bispectrum components");
  EMBER_REQUIRE(wj.empty() || wj.size() == rij.size(),
                "weight array size mismatch");
  const int tj = params.twojmax;
  const std::vector<double> rp = make_rootpq(tj);
  const int u_total = idx.u_total();
  const auto& triples = idx.z_triples();

  // compute_U: self term plus the weighted, switched U of every neighbor.
  std::vector<Cplx> utot(u_total);
  std::vector<Cplx> u(u_total);
  for (int j = 0; j <= tj; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      utot[idx.u_index(j, ma, ma)] += Cplx{params.wself, 0.0};
    }
  }
  std::vector<CayleyKlein> cks(rij.size());
  std::vector<double> w(rij.size(), 1.0);
  for (std::size_t k = 0; k < rij.size(); ++k) {
    cks[k] = map_to_sphere(rij[k], params.rcut, params.rfac0, params.rmin0,
                           params.switch_flag);
    if (!wj.empty()) w[k] = wj[k];
    u_recur_flat(idx, rp, tj, cks[k], u.data(), false);
    const double wfc = w[k] * cks[k].fc;
    for (int e = 0; e < u_total; ++e) utot[e] += wfc * u[e];
  }

  // compute_Z: every coupled matrix, stored (O(J^5)).
  std::vector<Cplx> z(idx.z_total());
  for (const auto& t : triples) {
    const int n = t.j + 1;
    for (int ma = 0; ma < n; ++ma) {
      for (int mb = 0; mb < n; ++mb) {
        z[t.idxz_u + ma * n + mb] = z_elem(idx, utot.data(), t, ma, mb);
      }
    }
  }

  // compute_dU -> compute_dB per neighbor, contracted with beta.
  std::vector<DU3> du(u_total);
  std::vector<Vec3> de(rij.size());
  for (std::size_t k = 0; k < rij.size(); ++k) {
    du_recur_flat(idx, rp, tj, cks[k], w[k], u.data(), du.data(), false);
    de[k] = db_force(
        idx, beta, [&](int zi, int e) { return z[triples[zi].idxz_u + e]; },
        [&](int j, int e) -> const DU3& { return du[idx.u_block(j) + e]; });
  }
  return de;
}

const char* to_string(TestSnapVariant v) {
  switch (v) {
    case TestSnapVariant::V0_Baseline:
      return "V0 baseline (jagged, Z+dB)";
    case TestSnapVariant::V1_Staged:
      return "V1 staged kernels";
    case TestSnapVariant::V2_Flattened:
      return "V2 flattened arrays";
    case TestSnapVariant::V3_Adjoint:
      return "V3 adjoint refactor (Y+dE)";
    case TestSnapVariant::V4_Fused:
      return "V4 fused dU+dE";
    case TestSnapVariant::V5_HalfMb:
      return "V5 symmetric half range";
    case TestSnapVariant::V6_SplitSoA:
      return "V6 split re/im layout";
    case TestSnapVariant::V7_CachedCk:
      return "V7 cached neighbor state";
  }
  return "?";
}

TestSnap::TestSnap(const SnapParams& params, int natoms, int nnbor,
                   std::uint64_t seed)
    : params_(params),
      idx_(params.twojmax),
      natoms_(natoms),
      nnbor_(nnbor),
      rootpq_(make_rootpq(params.twojmax)) {
  Rng rng(seed);
  beta_.resize(idx_.num_b());
  for (auto& b : beta_) b = rng.uniform(-1.0, 1.0);

  rij_.reserve(static_cast<std::size_t>(natoms) * nnbor);
  while (rij_.size() < static_cast<std::size_t>(natoms) * nnbor) {
    Vec3 r{rng.uniform(-params_.rcut, params_.rcut),
           rng.uniform(-params_.rcut, params_.rcut),
           rng.uniform(-params_.rcut, params_.rcut)};
    const double d = r.norm();
    if (d > 0.7 && d < params_.rcut * 0.97) rij_.push_back(r);
  }
  forces_.assign(natoms, Vec3{});
}

double TestSnap::run(TestSnapVariant variant, ExecutionPolicy policy) {
  std::fill(forces_.begin(), forces_.end(), Vec3{});

  const auto run_range = [this, variant](int begin, int end) {
    switch (variant) {
      case TestSnapVariant::V0_Baseline:
        run_baseline(begin, end);
        break;
      case TestSnapVariant::V1_Staged:
        run_staged(false);
        break;
      case TestSnapVariant::V2_Flattened:
        run_staged(true);
        break;
      case TestSnapVariant::V3_Adjoint:
        run_adjoint(begin, end);
        break;
      case TestSnapVariant::V4_Fused:
        run_fused(0, begin, end);
        break;
      case TestSnapVariant::V5_HalfMb:
        run_fused(1, begin, end);
        break;
      case TestSnapVariant::V6_SplitSoA:
        run_fused(2, begin, end);
        break;
      case TestSnapVariant::V7_CachedCk:
        run_fused(3, begin, end);
        break;
    }
  };

  // V1/V2 stage whole batches through shared flat buffers; the other
  // variants keep all scratch function-local and thread over atom blocks.
  const bool threadable = variant != TestSnapVariant::V1_Staged &&
                          variant != TestSnapVariant::V2_Flattened;

  WallTimer timer;
  if (policy.serial() || !threadable) {
    run_range(0, natoms_);
  } else {
    if (!pool_ || pool_->size() != policy.nthreads) {
      pool_ = std::make_unique<parallel::ThreadPool>(policy.nthreads);
    }
    // One block per worker: scratch is allocated once per thread per run,
    // and forces_[i] writes are disjoint, so the result is bitwise equal
    // to the serial sweep.
    pool_->parallel_blocks(0, natoms_,
                           [&](int /*tid*/, int b, int e) { run_range(b, e); });
  }
  return timer.seconds();
}

double TestSnap::grind_time(TestSnapVariant variant, int repeats,
                            ExecutionPolicy policy) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    best = std::min(best, run(variant, policy));
  }
  return best / (static_cast<double>(natoms_));
}

// ---- V0: Listing-1 baseline ----------------------------------------------

void TestSnap::run_baseline(int begin, int end) {
  const int tj = params_.twojmax;
  const auto& triples = idx_.z_triples();

  for (int i = begin; i < end; ++i) {
    // Per-atom allocations: the layout this study starts from.
    JaggedU utot;
    jagged_alloc(utot, tj);
    for (int j = 0; j <= tj; ++j) {
      for (int ma = 0; ma <= j; ++ma) {
        utot[j][ma * (j + 1) + ma] = {params_.wself, 0.0};
      }
    }
    JaggedU unb;
    jagged_alloc(unb, tj);
    const Vec3* rij = rij_.data() + static_cast<std::size_t>(i) * nnbor_;

    for (int k = 0; k < nnbor_; ++k) {
      const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                    params_.rmin0, params_.switch_flag);
      u_recur_jagged(rootpq_, tj, ck, unb);
      for (int j = 0; j <= tj; ++j) {
        for (std::size_t e = 0; e < unb[j].size(); ++e) {
          utot[j][e] += ck.fc * unb[j][e];
        }
      }
    }

    // Z storage: one jagged matrix per coupling triple (O(J^5) memory).
    std::vector<std::vector<Cplx>> zl(triples.size());
    for (std::size_t t = 0; t < triples.size(); ++t) {
      const int n = triples[t].j + 1;
      zl[t].resize(static_cast<std::size_t>(n) * n);
      for (int ma = 0; ma < n; ++ma) {
        for (int mb = 0; mb < n; ++mb) {
          zl[t][ma * n + mb] = z_elem_jagged(idx_, utot, triples[t], ma, mb);
        }
      }
    }

    JaggedU ubare;
    jagged_alloc(ubare, tj);
    JaggedDU dunb;
    jagged_alloc(dunb, tj);
    Vec3 fsum{};
    for (int k = 0; k < nnbor_; ++k) {
      const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                    params_.rmin0, params_.switch_flag);
      du_recur_jagged(rootpq_, tj, ck, 1.0, ubare, dunb);
      fsum += db_force(
          idx_, beta_, [&](int zi, int e) { return zl[zi][e]; },
          [&](int j, int e) -> const DU3& { return dunb[j][e]; });
    }
    forces_[i] = fsum;
  }
}

// ---- V1 / V2: staged kernels, jagged vs flattened -------------------------

void TestSnap::run_staged(bool flattened) {
  const int tj = params_.twojmax;
  const int u_total = idx_.u_total();
  const int z_total = idx_.z_total();
  const auto& triples = idx_.z_triples();

  // Batch size bounded by a memory cap (the paper's 2J=14 OOM story).
  const std::size_t per_atom_bytes =
      static_cast<std::size_t>(u_total + z_total) * sizeof(Cplx);
  const std::size_t cap = 256ull << 20;
  const int batch = std::max(
      1, std::min(natoms_, static_cast<int>(cap / per_atom_bytes)));

  // Storage for a batch.
  std::vector<JaggedU> utot_j;
  std::vector<std::vector<std::vector<Cplx>>> z_j;
  if (!flattened) {
    utot_j.resize(batch);
    z_j.resize(batch);
    for (int b = 0; b < batch; ++b) {
      jagged_alloc(utot_j[b], tj);
      z_j[b].resize(triples.size());
      for (std::size_t t = 0; t < triples.size(); ++t) {
        const int n = triples[t].j + 1;
        z_j[b][t].resize(static_cast<std::size_t>(n) * n);
      }
    }
  } else {
    flat_u_.assign(static_cast<std::size_t>(batch) * u_total, Cplx{});
    flat_z_.assign(static_cast<std::size_t>(batch) * z_total, Cplx{});
  }

  JaggedU unb_j;
  JaggedU ubare_j;
  JaggedDU dunb_j;
  jagged_alloc(unb_j, tj);
  jagged_alloc(ubare_j, tj);
  jagged_alloc(dunb_j, tj);
  std::vector<Cplx> unb_f(u_total);
  std::vector<DU3> dunb_f(u_total);

  for (int base = 0; base < natoms_; base += batch) {
    const int count = std::min(batch, natoms_ - base);

    // Stage 1: compute_U for every atom in the batch.
    for (int b = 0; b < count; ++b) {
      const Vec3* rij =
          rij_.data() + static_cast<std::size_t>(base + b) * nnbor_;
      if (!flattened) {
        for (int j = 0; j <= tj; ++j) {
          std::fill(utot_j[b][j].begin(), utot_j[b][j].end(), Cplx{});
          for (int ma = 0; ma <= j; ++ma) {
            utot_j[b][j][ma * (j + 1) + ma] = {params_.wself, 0.0};
          }
        }
        for (int k = 0; k < nnbor_; ++k) {
          const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                        params_.rmin0, params_.switch_flag);
          u_recur_jagged(rootpq_, tj, ck, unb_j);
          for (int j = 0; j <= tj; ++j) {
            for (std::size_t e = 0; e < unb_j[j].size(); ++e) {
              utot_j[b][j][e] += ck.fc * unb_j[j][e];
            }
          }
        }
      } else {
        Cplx* utot = flat_u_.data() + static_cast<std::size_t>(b) * u_total;
        std::fill(utot, utot + u_total, Cplx{});
        for (int j = 0; j <= tj; ++j) {
          for (int ma = 0; ma <= j; ++ma) {
            utot[idx_.u_index(j, ma, ma)] += Cplx{params_.wself, 0.0};
          }
        }
        for (int k = 0; k < nnbor_; ++k) {
          const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                        params_.rmin0, params_.switch_flag);
          u_recur_flat(idx_, rootpq_, tj, ck, unb_f.data(), false);
          for (int e = 0; e < u_total; ++e) utot[e] += ck.fc * unb_f[e];
        }
      }
    }

    // Stage 2: compute_Z for every atom in the batch.
    for (int b = 0; b < count; ++b) {
      if (!flattened) {
        for (std::size_t t = 0; t < triples.size(); ++t) {
          const int n = triples[t].j + 1;
          for (int ma = 0; ma < n; ++ma) {
            for (int mb = 0; mb < n; ++mb) {
              z_j[b][t][ma * n + mb] =
                  z_elem_jagged(idx_, utot_j[b], triples[t], ma, mb);
            }
          }
        }
      } else {
        const Cplx* utot =
            flat_u_.data() + static_cast<std::size_t>(b) * u_total;
        Cplx* z = flat_z_.data() + static_cast<std::size_t>(b) * z_total;
        for (const auto& t : triples) {
          const int n = t.j + 1;
          for (int ma = 0; ma < n; ++ma) {
            for (int mb = 0; mb < n; ++mb) {
              z[t.idxz_u + ma * n + mb] = z_elem(idx_, utot, t, ma, mb);
            }
          }
        }
      }
    }

    // Stage 3: per (atom, neighbor) dU -> dB -> force.
    for (int b = 0; b < count; ++b) {
      const Vec3* rij =
          rij_.data() + static_cast<std::size_t>(base + b) * nnbor_;
      Vec3 fsum{};
      for (int k = 0; k < nnbor_; ++k) {
        const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                      params_.rmin0, params_.switch_flag);
        if (!flattened) {
          du_recur_jagged(rootpq_, tj, ck, 1.0, ubare_j, dunb_j);
          fsum += db_force(
              idx_, beta_, [&](int zi, int e) { return z_j[b][zi][e]; },
              [&](int j, int e) -> const DU3& { return dunb_j[j][e]; });
        } else {
          du_recur_flat(idx_, rootpq_, tj, ck, 1.0, unb_f.data(),
                        dunb_f.data(), false);
          const Cplx* z = flat_z_.data() + static_cast<std::size_t>(b) * z_total;
          fsum += db_force(
              idx_, beta_,
              [&](int zi, int e) { return z[triples[zi].idxz_u + e]; },
              [&](int j, int e) -> const DU3& {
                return dunb_f[idx_.u_block(j) + e];
              });
        }
      }
      forces_[base + b] = fsum;
    }
  }
}

// ---- V3: adjoint refactorization ------------------------------------------

void TestSnap::run_adjoint(int begin, int end) {
  const int tj = params_.twojmax;
  const int u_total = idx_.u_total();
  std::vector<Cplx> utot(u_total);
  std::vector<Cplx> unb(u_total);
  std::vector<Cplx> y(u_total);
  std::vector<DU3> du(u_total);

  for (int i = begin; i < end; ++i) {
    const Vec3* rij = rij_.data() + static_cast<std::size_t>(i) * nnbor_;
    std::fill(utot.begin(), utot.end(), Cplx{});
    for (int j = 0; j <= tj; ++j) {
      for (int ma = 0; ma <= j; ++ma) {
        utot[idx_.u_index(j, ma, ma)] += Cplx{params_.wself, 0.0};
      }
    }
    for (int k = 0; k < nnbor_; ++k) {
      const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                    params_.rmin0, params_.switch_flag);
      u_recur_flat(idx_, rootpq_, tj, ck, unb.data(), false);
      for (int e = 0; e < u_total; ++e) utot[e] += ck.fc * unb[e];
    }

    std::fill(y.begin(), y.end(), Cplx{});
    for (const auto& t : idx_.z_triples()) {
      const double coeff = beta_[t.idxb] * t.beta_scale;
      if (coeff == 0.0) continue;
      Cplx* yj = y.data() + idx_.u_block(t.j);
      const int n = t.j + 1;
      for (int ma = 0; ma < n; ++ma) {
        for (int mb = 0; mb < n; ++mb) {
          yj[ma * n + mb] += coeff * z_elem(idx_, utot.data(), t, ma, mb);
        }
      }
    }

    Vec3 fsum{};
    for (int k = 0; k < nnbor_; ++k) {
      const auto ck = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                                    params_.rmin0, params_.switch_flag);
      du_recur_flat(idx_, rootpq_, tj, ck, 1.0, unb.data(), du.data(), false);
      Vec3 de;
      for (int e = 0; e < u_total; ++e) {
        de.x += re_mul_conj(y[e], du[e].d[0]);
        de.y += re_mul_conj(y[e], du[e].d[1]);
        de.z += re_mul_conj(y[e], du[e].d[2]);
      }
      fsum += de;
    }
    forces_[i] = fsum;
  }
}

// ---- V4..V7: fused / half-range / SoA / cached-neighbor kernels -----------
// The half-column contraction weight is the shared ember::snap::half_weight
// from indexing.hpp (also used by the production kernel).

void TestSnap::run_fused(int level, int begin, int end) {
  const bool half = level >= 1;
  const bool soa = level >= 2;
  const bool cache_u = level >= 3;
  const int tj = params_.twojmax;
  const int u_total = idx_.u_total();
  EMBER_REQUIRE(tj <= 14, "fused kernel stack buffers sized for 2J <= 14");

  std::vector<Cplx> utot(u_total);
  std::vector<Cplx> unb(u_total);
  std::vector<Cplx> y(u_total);
  std::vector<double> yr;
  std::vector<double> yi;
  if (soa) {
    yr.resize(u_total);
    yi.resize(u_total);
  }
  std::vector<Cplx> ucache;
  std::vector<CayleyKlein> cks(nnbor_);
  if (cache_u) {
    ucache.resize(static_cast<std::size_t>(nnbor_) * u_total);
  }

  for (int i = begin; i < end; ++i) {
    const Vec3* rij = rij_.data() + static_cast<std::size_t>(i) * nnbor_;

    // --- accumulation pass (optionally half columns + caching) ---
    std::fill(utot.begin(), utot.end(), Cplx{});
    for (int k = 0; k < nnbor_; ++k) {
      cks[k] = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                             params_.rmin0, params_.switch_flag);
      Cplx* udst =
          cache_u ? ucache.data() + static_cast<std::size_t>(k) * u_total
                  : unb.data();
      u_recur_flat(idx_, rootpq_, tj, cks[k], udst, half);
      const double w = cks[k].fc;
      for (int j = 0; j <= tj; ++j) {
        const int blk = idx_.u_block(j);
        const int cs = j + 1;
        const int mb_max = half ? j / 2 : j;
        for (int mb = 0; mb <= mb_max; ++mb) {
          for (int ma = 0; ma <= j; ++ma) {
            utot[blk + ma * cs + mb] += w * udst[blk + ma * cs + mb];
          }
        }
      }
    }
    if (half) {
      // Mirror the un-computed columns: U[ma,mb] = (-1)^(ma+mb)
      // conj(U[j-ma, j-mb]).
      for (int j = 0; j <= tj; ++j) {
        const int blk = idx_.u_block(j);
        const int cs = j + 1;
        for (int mb = j / 2 + 1; mb <= j; ++mb) {
          for (int ma = 0; ma <= j; ++ma) {
            const Cplx src = utot[blk + (j - ma) * cs + (j - mb)];
            const double sign = ((ma + mb) % 2 == 0) ? 1.0 : -1.0;
            utot[blk + ma * cs + mb] = sign * conj(src);
          }
        }
      }
    }
    // Self term on the full diagonal (after mirroring).
    for (int j = 0; j <= tj; ++j) {
      for (int ma = 0; ma <= j; ++ma) {
        utot[idx_.u_index(j, ma, ma)] += Cplx{params_.wself, 0.0};
      }
    }

    // --- Y (only the contracted half is needed under symmetry) ---
    std::fill(y.begin(), y.end(), Cplx{});
    for (const auto& t : idx_.z_triples()) {
      const double coeff = beta_[t.idxb] * t.beta_scale;
      if (coeff == 0.0) continue;
      Cplx* yj = y.data() + idx_.u_block(t.j);
      const int n = t.j + 1;
      const int mb_max = half ? t.j / 2 : t.j;
      for (int ma = 0; ma < n; ++ma) {
        for (int mb = 0; mb <= mb_max; ++mb) {
          yj[ma * n + mb] += coeff * z_elem(idx_, utot.data(), t, ma, mb);
        }
      }
    }
    if (soa) {
      for (int e = 0; e < u_total; ++e) {
        yr[e] = y[e].re;
        yi[e] = y[e].im;
      }
    }

    // --- fused force pass: level-by-level recursion + contraction ---
    Vec3 fsum{};
    for (int k = 0; k < nnbor_; ++k) {
      const CayleyKlein& ck = cks[k];
      const Cplx* cached =
          cache_u ? ucache.data() + static_cast<std::size_t>(k) * u_total
                  : nullptr;
      // Ping-pong level buffers for the bare u and du.
      std::array<Cplx, 225> ubuf_a{}, ubuf_b{};
      std::array<DU3, 225> dbuf_a{}, dbuf_b{};
      Cplx* uprev = ubuf_a.data();
      Cplx* ucur = ubuf_b.data();
      DU3* dprev = dbuf_a.data();
      DU3* dcur = dbuf_b.data();
      uprev[0] = {1.0, 0.0};
      dprev[0] = DU3{};

      Vec3 de;
      // j = 0 contribution: d(fc u)/dr = dfc (u = 1, du = 0); weight 1.
      {
        const int e0 = idx_.u_index(0, 0, 0);
        for (int d = 0; d < 3; ++d) {
          const Cplx dfull{ck.dfc[d], 0.0};
          const double yre = soa ? yr[e0] : y[e0].re;
          const double yim = soa ? yi[e0] : y[e0].im;
          de[d] += yre * dfull.re + yim * dfull.im;
        }
      }

      const Cplx a = ck.a;
      const Cplx b = ck.b;
      for (int j = 1; j <= tj; ++j) {
        const int blk = idx_.u_block(j);
        const int pblk = idx_.u_block(j - 1);
        const int cs = j + 1;
        const int ps = j;
        const int mb_max = half ? j / 2 : j;
        for (int mb = 0; mb <= mb_max; ++mb) {
          const bool zc = (mb == 0);
          const Cplx cu = zc ? -conj(b) : a;
          const Cplx cd = zc ? conj(a) : b;
          const int pcol = zc ? 0 : mb - 1;
          const int denom = zc ? j : mb;
          for (int ma = 0; ma <= j; ++ma) {
            Cplx v{};
            DU3 dv{};
            if (ma > 0) {
              const double r = rootpq(rootpq_, tj, ma, denom);
              const Cplx up = cache_u ? cached[pblk + (ma - 1) * ps + pcol]
                                      : uprev[(ma - 1) * ps + pcol];
              const DU3& dup = dprev[(ma - 1) * ps + pcol];
              if (!cache_u) v += r * (cu * up);
              for (int d = 0; d < 3; ++d) {
                const Cplx dcu = zc ? -conj(ck.db[d]) : ck.da[d];
                dv.d[d] += r * (dcu * up + cu * dup.d[d]);
              }
            }
            if (ma < j) {
              const double r = rootpq(rootpq_, tj, j - ma, denom);
              const Cplx up = cache_u ? cached[pblk + ma * ps + pcol]
                                      : uprev[ma * ps + pcol];
              const DU3& dup = dprev[ma * ps + pcol];
              if (!cache_u) v += r * (cd * up);
              for (int d = 0; d < 3; ++d) {
                const Cplx dcd = zc ? conj(ck.da[d]) : ck.db[d];
                dv.d[d] += r * (dcd * up + cd * dup.d[d]);
              }
            }
            if (cache_u) v = cached[blk + ma * cs + mb];
            ucur[ma * cs + mb] = v;
            dcur[ma * cs + mb] = dv;

            const double weight = half ? half_weight(j, ma, mb) : 1.0;
            if (weight != 0.0) {
              const int e = blk + ma * cs + mb;
              const double yre = soa ? yr[e] : y[e].re;
              const double yim = soa ? yi[e] : y[e].im;
              for (int d = 0; d < 3; ++d) {
                const Cplx dfull =
                    ck.dfc[d] * v + ck.fc * dv.d[d];  // w = 1
                de[d] += weight * (yre * dfull.re + yim * dfull.im);
              }
            }
          }
        }
        std::swap(uprev, ucur);
        std::swap(dprev, dcur);
      }
      fsum += de;
    }
    forces_[i] = fsum;
  }
}

}  // namespace ember::snap
