#include "bispectrum.hpp"

#include <algorithm>
#include <cmath>

#include "check/invariants.hpp"
#include "common/error.hpp"
#include "snap/simd/kernels.hpp"

namespace ember::snap {

Bispectrum::Bispectrum(const SnapParams& params)
    : params_(params),
      idx_(std::make_shared<const SnapIndex>(params.twojmax)),
      // Resolve the kernel table once per instance: CPUID capability
      // clamped by EMBER_SIMD (non-x86 builds and EMBER_SIMD=scalar get
      // width 1).
      simd_isa_(simd::choose_isa()),
      simd_ops_(&simd::ops_for(simd_isa_)) {
  const int tj = params_.twojmax;
  EMBER_REQUIRE(params_.rcut > params_.rmin0, "rcut must exceed rmin0");

  rootpq_.resize(static_cast<std::size_t>(tj + 1) * (tj + 1), 0.0);
  for (int p = 1; p <= tj; ++p) {
    for (int q = 1; q <= tj; ++q) {
      rootpq_[static_cast<std::size_t>(p) * (tj + 1) + q] =
          std::sqrt(static_cast<double>(p) / q);
    }
  }
  allocate();

  // bzero: bispectrum of an isolated atom (self term only), obtained by
  // running the kernel itself on an empty neighbor set. compute_bi_impl
  // takes the subtraction choice explicitly, so the raw values are
  // measured without mutating params_.
  bzero_.assign(idx_->num_b(), 0.0);
  if (params_.bzero_flag) {
    compute_ui({}, {});
    compute_zi();
    compute_bi_impl(/*subtract_bzero=*/false);
    bzero_.assign(blist_.begin(), blist_.end());
  }
}

Bispectrum::Bispectrum(const Bispectrum& proto, SiblingTag)
    : params_(proto.params_),
      idx_(proto.idx_),
      rootpq_(proto.rootpq_),
      bzero_(proto.bzero_),
      simd_isa_(proto.simd_isa_),
      simd_ops_(proto.simd_ops_) {
  allocate();
}

Bispectrum Bispectrum::sibling() const { return {*this, SiblingTag{}}; }

void Bispectrum::allocate() {
  utot_.resize(idx_->u_total());
  zlist_.resize(idx_->z_total());
  blist_.resize(idx_->num_b());

  const int nh = idx_->u_half_total();
  utot_half_re_.resize(nh);
  utot_half_im_.resize(nh);

  const std::size_t w = static_cast<std::size_t>(simd_ops_->width);
  lanes_.resize(w);
  lane_u_re_.assign(static_cast<std::size_t>(idx_->u_total()) * w, 0.0);
  lane_u_im_.assign(static_cast<std::size_t>(idx_->u_total()) * w, 0.0);
  lane_y_re_.assign(static_cast<std::size_t>(nh) * w, 0.0);
  lane_y_im_.assign(static_cast<std::size_t>(nh) * w, 0.0);
  yi_coeff_.assign(idx_->z_triples().size() * w, 0.0);
  simd_ck_.resize(static_cast<std::size_t>(simd::kCkSlots) * w);
  simd_wfc_.resize(w);
  simd_acc_re_.resize(static_cast<std::size_t>(nh) * w);
  simd_acc_im_.resize(static_cast<std::size_t>(nh) * w);
  simd_x_re_.resize(static_cast<std::size_t>(nh) * w);
  simd_x_im_.resize(static_cast<std::size_t>(nh) * w);
  simd_out_.resize(3 * w);
}

void Bispectrum::mirror_half_to_full(const double* hre, const double* him,
                                     std::vector<Cplx>& full) const {
  for (int j = 0; j <= params_.twojmax; ++j) {
    const int blk = idx_->u_block(j);
    const int hblk = idx_->u_half_block(j);
    const int cs = j + 1;
    const int hs = j / 2 + 1;
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; mb <= j / 2; ++mb) {
        const int h = hblk + ma * hs + mb;
        full[blk + ma * cs + mb] = {hre[h], him[h]};
      }
      for (int mb = j / 2 + 1; mb <= j; ++mb) {
        const int h = hblk + (j - ma) * hs + (j - mb);
        const double sign = ((ma + mb) % 2 == 0) ? 1.0 : -1.0;
        full[blk + ma * cs + mb] = {sign * hre[h], -sign * him[h]};
      }
    }
  }
}

void Bispectrum::pack_ck_lane(const LaneCache& lc, int k0, int lane,
                              int width) {
  // Padded lanes repeat the last active neighbor's mapping: the recursion
  // stays finite and the zeroed weight slots erase their contributions.
  const bool active = k0 + lane < lc.nnbor;
  const int k = active ? k0 + lane : lc.nnbor - 1;
  const CayleyKlein& ck = lc.ck[k];
  double* s = simd_ck_.data();
  s[simd::kCkARe * width + lane] = ck.a.re;
  s[simd::kCkAIm * width + lane] = ck.a.im;
  s[simd::kCkBRe * width + lane] = ck.b.re;
  s[simd::kCkBIm * width + lane] = ck.b.im;
  for (int d = 0; d < 3; ++d) {
    s[(simd::kCkDaRe0 + d) * width + lane] = ck.da[d].re;
    s[(simd::kCkDaIm0 + d) * width + lane] = ck.da[d].im;
    s[(simd::kCkDbRe0 + d) * width + lane] = ck.db[d].re;
    s[(simd::kCkDbIm0 + d) * width + lane] = ck.db[d].im;
    s[(simd::kCkDfc0 + d) * width + lane] = ck.dfc[d];
  }
  s[simd::kCkFc * width + lane] = ck.fc;
  s[simd::kCkW * width + lane] = active ? lc.wj[k] : 0.0;
  simd_wfc_[lane] = active ? lc.wj[k] * ck.fc : 0.0;
}

void Bispectrum::compute_ui(std::span<const Vec3> rij,
                            std::span<const double> wj, int lane) {
  EMBER_REQUIRE(wj.empty() || wj.size() == rij.size(),
                "weight array size mismatch");
  require_lane(lane);
  have_z_ = false;
  const int nh = idx_->u_half_total();
  const int nn = static_cast<int>(rij.size());
  const int w = simd_ops_->width;
  const std::size_t plane = static_cast<std::size_t>(nh) * w;
  LaneCache& lc = lanes_[lane];
  lc.nnbor = nn;
  lc.ck.resize(nn);
  lc.wj.resize(nn);
  const int nblk = (nn + w - 1) / w;
  lc.ure.resize(static_cast<std::size_t>(nblk) * plane);
  lc.uim.resize(static_cast<std::size_t>(nblk) * plane);
  std::fill(simd_acc_re_.begin(), simd_acc_re_.end(), 0.0);
  std::fill(simd_acc_im_.begin(), simd_acc_im_.end(), 0.0);
  EMBER_CHECK(EMBER_REQUIRE(
      is_aligned(lc.ure.data()) && is_aligned(lc.uim.data()) &&
          is_aligned(simd_acc_re_.data()) && is_aligned(simd_acc_im_.data()),
      "SNAP SIMD planes must be 64-byte aligned"));

  for (int k = 0; k < nn; ++k) {
    lc.ck[k] = map_to_sphere(rij[k], params_.rcut, params_.rfac0,
                             params_.rmin0, params_.switch_flag);
    lc.wj[k] = wj.empty() ? 1.0 : wj[k];
  }

  for (int b = 0; b < nblk; ++b) {
    for (int l = 0; l < w; ++l) pack_ck_lane(lc, b * w, l, w);
    simd::UiBlockArgs args;
    args.twojmax = params_.twojmax;
    args.half_block = idx_->u_half_block_data();
    args.nh = nh;
    args.rootpq = rootpq_.data();
    args.a_re = simd_ck_.data() + simd::kCkARe * w;
    args.a_im = simd_ck_.data() + simd::kCkAIm * w;
    args.b_re = simd_ck_.data() + simd::kCkBRe * w;
    args.b_im = simd_ck_.data() + simd::kCkBIm * w;
    args.wfc = simd_wfc_.data();
    args.ur = lc.ure.data() + static_cast<std::size_t>(b) * plane;
    args.ui = lc.uim.data() + static_cast<std::size_t>(b) * plane;
    args.acc_re = simd_acc_re_.data();
    args.acc_im = simd_acc_im_.data();
    simd_ops_->ui_block(args);
  }

  // Reduce the lane accumulator into the element-major half planes (the
  // neighbor sum is re-associated across lanes; tiers differ by pure
  // summation-order rounding, within the 1e-12 parity budget).
  for (int e = 0; e < nh; ++e) {
    double sr = 0.0;
    double si = 0.0;
    for (int l = 0; l < w; ++l) {
      sr += simd_acc_re_[static_cast<std::size_t>(e) * w + l];
      si += simd_acc_im_[static_cast<std::size_t>(e) * w + l];
    }
    utot_half_re_[e] = sr;
    utot_half_im_[e] = si;
  }

  for (int j = 0; j <= params_.twojmax; ++j) {
    for (int ma = 0; ma <= j / 2; ++ma) {
      utot_half_re_[idx_->u_half_index(j, ma, ma)] += params_.wself;
    }
  }

  mirror_half_to_full(utot_half_re_.data(), utot_half_im_.data(), utot_);
  for (int f = 0; f < idx_->u_total(); ++f) {
    lane_u_re_[static_cast<std::size_t>(f) * w + lane] = utot_[f].re;
    lane_u_im_[static_cast<std::size_t>(f) * w + lane] = utot_[f].im;
  }
}

void Bispectrum::clear_lane(int lane) {
  require_lane(lane);
  const int w = simd_ops_->width;
  for (int f = 0; f < idx_->u_total(); ++f) {
    lane_u_re_[static_cast<std::size_t>(f) * w + lane] = 0.0;
    lane_u_im_[static_cast<std::size_t>(f) * w + lane] = 0.0;
  }
  lanes_[lane].nnbor = 0;
}

Cplx Bispectrum::z_element_aligned(const ZTriple& t, int ma, int mb) const {
  const int j1 = t.j1;
  const int j2 = t.j2;
  const int s = (t.j1 + t.j2 - t.j) / 2;
  const Cplx* u1 = utot_.data() + idx_->u_block(j1);
  const Cplx* u2 = utot_.data() + idx_->u_block(j2);
  const int s1 = j1 + 1;
  const int s2 = j2 + 1;
  const double* cgr = idx_->aligned_cg_row(t, ma);
  const double* cgc = idx_->aligned_cg_row(t, mb);

  Cplx z{};
  const int ra_lo = std::max(0, ma + s - j2);
  const int ra_hi = std::min(j1, ma + s);
  const int cb_lo = std::max(0, mb + s - j2);
  const int cb_hi = std::min(j1, mb + s);
  for (int ma1 = ra_lo; ma1 <= ra_hi; ++ma1) {
    const double cg_row = cgr[ma1];
    if (cg_row == 0.0) continue;
    const Cplx* u1row = u1 + ma1 * s1;
    const Cplx* u2row = u2 + (ma + s - ma1) * s2 + s;
    Cplx rowsum{};
    for (int mb1 = cb_lo; mb1 <= cb_hi; ++mb1) {
      // u2 column mb2 = mb + s - mb1; u2row is pre-offset by s so the
      // access is u2row[mb - mb1].
      rowsum += cgc[mb1] * (u1row[mb1] * u2row[mb - mb1]);
    }
    z += cg_row * rowsum;
  }
  return z;
}

void Bispectrum::compute_zi() {
  for (const auto& t : idx_->z_triples()) {
    Cplx* z = zlist_.data() + t.idxz_u;
    const int n = t.j + 1;
    for (int ma = 0; ma < n; ++ma) {
      for (int mb = 0; mb < n; ++mb) {
        z[ma * n + mb] = z_element_aligned(t, ma, mb);
      }
    }
  }
  have_z_ = true;
}

void Bispectrum::compute_bi() { compute_bi_impl(params_.bzero_flag); }

void Bispectrum::compute_bi_impl(bool subtract_bzero) {
  EMBER_REQUIRE(have_z_, "compute_bi requires compute_zi");
  int l = 0;
  for (const auto& bt : idx_->b_triples()) {
    const int zi = idx_->z_index(bt.j1, bt.j2, bt.j);
    const ZTriple& t = idx_->z_triples()[zi];
    const Cplx* z = zlist_.data() + t.idxz_u;
    const Cplx* uj = utot_.data() + idx_->u_block(bt.j);
    const int n = bt.j + 1;
    double sum = 0.0;
    for (int e = 0; e < n * n; ++e) sum += re_mul_conj(z[e], uj[e]);
    blist_[l] = sum - (subtract_bzero ? bzero_[l] : 0.0);
    ++l;
  }
}

void Bispectrum::compute_yi(std::span<const double> beta) {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == idx_->num_b(),
                "beta size must equal the number of bispectrum components");
  const auto& triples = idx_->z_triples();
  const std::size_t w = static_cast<std::size_t>(simd_ops_->width);
  for (std::size_t t = 0; t < triples.size(); ++t) {
    yi_coeff_[t * w] = beta[triples[t].idxb] * triples[t].beta_scale;
  }
  compute_yi_block(yi_coeff_);
}

void Bispectrum::compute_yi_block(std::span<const double> coeff_planes) {
  const YiList& yl = idx_->yi_list();
  const std::size_t w = static_cast<std::size_t>(simd_ops_->width);
  EMBER_REQUIRE(coeff_planes.size() == idx_->z_triples().size() * w,
                "coefficient planes must hold one lane set per triple");
  // Caller-owned, so checked in every build (once per block).
  EMBER_REQUIRE(is_aligned(coeff_planes.data()),
                "SNAP coefficient planes must be 64-byte aligned");
  simd::YiBlockArgs args;
  args.ntriples = static_cast<int>(yl.triple_end.size());
  args.triple_end = yl.triple_end.data();
  args.outs = yl.outs.data();
  args.rows = yl.rows.data();
  args.cg = idx_->aligned_cg_data();
  args.nh = idx_->u_half_total();
  args.coeff = coeff_planes.data();
  args.u_re = lane_u_re_.data();
  args.u_im = lane_u_im_.data();
  args.y_re = lane_y_re_.data();
  args.y_im = lane_y_im_.data();
  simd_ops_->yi_block(args);
}

void Bispectrum::require_lane(int lane) const {
  EMBER_REQUIRE(lane >= 0 && lane < lane_width(), "atom lane out of range");
}

std::vector<Cplx> Bispectrum::ylist(int lane) const {
  require_lane(lane);
  // Element (ma, mb) of the stored half range (weight 1 or 2) is read
  // directly; every other element is the conjugation mirror of one.
  const int w = simd_ops_->width;
  std::vector<Cplx> full(idx_->u_total());
  for (int j = 0; j <= params_.twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; mb <= j; ++mb) {
        const bool stored = half_weight(j, ma, mb) != 0.0 && 2 * mb <= j;
        const int ha = stored ? ma : j - ma;
        const int hb = stored ? mb : j - mb;
        const std::size_t h =
            static_cast<std::size_t>(idx_->u_half_index(j, ha, hb)) * w + lane;
        const double hw = half_weight(j, ha, hb);
        const Cplx y{lane_y_re_[h] / hw, lane_y_im_[h] / hw};
        const double sign = ((ma + mb) % 2 == 0) ? 1.0 : -1.0;
        full[idx_->u_index(j, ma, mb)] =
            stored ? y : Cplx{sign * y.re, -sign * y.im};
      }
    }
  }
  return full;
}

void Bispectrum::compute_deidrj_all(std::span<Vec3> de, int lane) {
  require_lane(lane);
  const LaneCache& lc = lanes_[lane];
  EMBER_REQUIRE(static_cast<int>(de.size()) >= lc.nnbor,
                "force span smaller than the cached neighbor set");
  const int nh = idx_->u_half_total();
  const int w = simd_ops_->width;
  const std::size_t plane = static_cast<std::size_t>(nh) * w;
  const int nblk = (lc.nnbor + w - 1) / w;
  EMBER_CHECK(EMBER_REQUIRE(
      is_aligned(simd_x_re_.data()) && is_aligned(simd_x_im_.data()),
      "SNAP SIMD planes must be 64-byte aligned"));

  for (int b = 0; b < nblk; ++b) {
    for (int l = 0; l < w; ++l) pack_ck_lane(lc, b * w, l, w);
    simd::DeiBlockArgs args;
    args.twojmax = params_.twojmax;
    args.half_block = idx_->u_half_block_data();
    args.nh = nh;
    args.rootpq = rootpq_.data();
    args.ck = simd_ck_.data();
    args.ur = lc.ure.data() + static_cast<std::size_t>(b) * plane;
    args.ui = lc.uim.data() + static_cast<std::size_t>(b) * plane;
    args.x_re = simd_x_re_.data();
    args.x_im = simd_x_im_.data();
    // This atom's Y lane, read in place (broadcast per element).
    args.y_re = lane_y_re_.data() + lane;
    args.y_im = lane_y_im_.data() + lane;
    args.y_stride = w;
    args.out = simd_out_.data();
    simd_ops_->dei_block(args);
    const int active = std::min(w, lc.nnbor - b * w);
    for (int l = 0; l < active; ++l) {
      de[b * w + l] = Vec3{simd_out_[0 * w + l], simd_out_[1 * w + l],
                           simd_out_[2 * w + l]};
    }
  }
}

double Bispectrum::energy_from_yi(double beta0, std::span<const double> beta,
                                  int lane) const {
  require_lane(lane);
  // Y carries the half weights, so the half range restores the full
  // sum: Re(Y conj U) is the same on an element and on its mirror.
  const int w = simd_ops_->width;
  double sum = 0.0;
  for (int j = 0; j <= params_.twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; 2 * mb <= j; ++mb) {
        const std::size_t h =
            static_cast<std::size_t>(idx_->u_half_index(j, ma, mb)) * w + lane;
        const std::size_t f =
            static_cast<std::size_t>(idx_->u_index(j, ma, mb)) * w + lane;
        sum += lane_y_re_[h] * lane_u_re_[f] + lane_y_im_[h] * lane_u_im_[f];
      }
    }
  }
  double e = beta0 + sum / 3.0;
  if (params_.bzero_flag) {
    for (int l = 0; l < idx_->num_b(); ++l) e -= beta[l] * bzero_[l];
  }
  return e;
}

double Bispectrum::energy(double beta0, std::span<const double> beta) const {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == idx_->num_b(),
                "beta size must equal the number of bispectrum components");
  double e = beta0;
  for (int l = 0; l < idx_->num_b(); ++l) e += beta[l] * blist_[l];
  return e;
}

// ---- analytic FLOP estimates -------------------------------------------
//
// A complex multiply counts 6 flops, complex add 2, real*complex 2.
// Constants below were chosen by counting the operations in the loops; the
// paper's own numbers come from measured FLOP counters, so these serve the
// same role (converting measured time into a FLOP rate). The adjoint
// counts cover only the half column range the production kernel executes,
// the mirror expansions, and the reverse sweep of the force pass.

double Bispectrum::flops_ui(int nnbor) const {
  // Vector lanes execute the same recursion, and padded-lane work is *not*
  // counted — fraction-of-peak readouts stay honest about useful flops.
  // mapping ~60, half recursion ~22 + accumulation 4 per half element,
  // plus the one-off mirror expansion (~2 per full element).
  return static_cast<double>(nnbor) *
             (60.0 + 26.0 * static_cast<double>(idx_->u_half_total())) +
         2.0 * static_cast<double>(idx_->u_total());
}

double Bispectrum::flops_yi() const {
  // Counted from the yi list the kernel walks, per atom lane: each term
  // is a complex product, a CG scale and an add (10), each row finish a
  // complex scale-add (4), each output the weighted accumulation into Y
  // (4). Dropped zero-CG rows and padded lanes are not in the count.
  const YiList& yl = idx_->yi_list();
  return 10.0 * static_cast<double>(yl.terms) +
         4.0 * static_cast<double>(yl.rows.size()) +
         4.0 * static_cast<double>(yl.outs.size());
}

double Bispectrum::flops_dei() const {
  // Counted from the reverse sweep dei_block runs (no mapping, no U
  // recursion: both are cached by compute_ui). Each recursion term of the
  // half range, 2j per column of level j, costs t = r X (2), X_p +=
  // conj(c) t (8) and G += conj(U_p) t (8); each half element adds 4 to S0.
  double terms = 0.0;
  for (int j = 1; j <= params_.twojmax; ++j) terms += 2.0 * j * (j / 2 + 1);
  return 18.0 * terms + 4.0 * static_cast<double>(idx_->u_half_total());
}

double Bispectrum::flops_adjoint_atom(int nnbor) const {
  return flops_ui(nnbor) + flops_yi() + nnbor * flops_dei();
}

}  // namespace ember::snap
