#pragma once

// Width-generic implementations of the V8 SIMD kernels: the one ui, yi
// and dei implementation every tier runs.
//
// Included only by the per-ISA translation units (kernels_scalar.cpp,
// kernels_avx2.cpp, kernels_avx512.cpp), each of which supplies a vector
// wrapper V over its native register type (a plain double at width 1):
//
//   static constexpr int width;            lanes per register
//   static V load(const double*);          aligned load
//   void store_to(double*) const;          aligned store
//   static V broadcast(double); zero();
//   static V neg(V);
//   static V fma(a, b, c)   = a * b + c    (single-rounding FMA on the
//   static V fmsub(a, b, c) = a * b - c     vector ISAs)
//   operators *, +, -  (element-wise)
//
// ui_block runs the bare-U recursion over the half column range
// (2*mb <= j; the rest follow from the conjugation mirror), dei_block the
// reverse (adjoint) sweep of that recursion on the cached bare U, seeded
// with Y, then the product rule; in both, each lane is one neighbor of one
// atom. yi_block is the Y contraction over the flattened coupling list,
// and there each lane is one *atom*: every atom runs the same triples,
// ranges and CG factors, so the list is walked once per block of atoms.
// The association order per lane is the same at every width and in
// every lane, so tiers differ only by FMA contraction rounding and an
// atom's result does not depend on its lane or its block-mates. The
// references are TestSNAP's Listing-1 per-neighbor dE (listing1_deidrj:
// full-range U, Z and dB), closed-form Wigner U and TestSNAP V3, at
// <= 1e-12 (tests/snap/).
//
// This header contains no intrinsics (ember_lint simd-intrinsics-include
// confines those to the kernels_avx*.cpp TUs).

#include "snap/simd/kernels.hpp"

namespace ember::snap::simd {

template <class V>
void ui_block_impl(const UiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  double* ur = g.ur;
  double* ui = g.ui;

  // Element 0: bare U = 1 on every lane.
  V::broadcast(1.0).store_to(ur);
  V::zero().store_to(ui);

  const V are = V::load(g.a_re);
  const V aim = V::load(g.a_im);
  const V bre = V::load(g.b_re);
  const V bim = V::load(g.b_im);

  for (int j = 1; j <= tj; ++j) {
    const int blk = g.half_block[j];
    const int pblk = g.half_block[j - 1];
    const int hs = j / 2 + 1;
    const int phs = (j - 1) / 2 + 1;
    for (int mb = 0; mb <= j / 2; ++mb) {
      const bool zc = (mb == 0);
      // cu = zc ? -conj(b) : a ;  cd = zc ? conj(a) : b
      const V cur = zc ? V::neg(bre) : are;
      const V cui = zc ? bim : aim;
      const V cdr = zc ? are : bre;
      const V cdi = zc ? V::neg(aim) : bim;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        V vre = V::zero();
        V vim = V::zero();
        if (ma > 0) {
          const V r = V::broadcast(g.rootpq[ma * (tj + 1) + denom]);
          const int p = (pblk + (ma - 1) * phs + pcol) * kW;
          const V upre = V::load(ur + p);
          const V upim = V::load(ui + p);
          // v += r * (cu * up)
          vre = V::fma(r, V::fmsub(cur, upre, cui * upim), vre);
          vim = V::fma(r, V::fma(cur, upim, cui * upre), vim);
        }
        if (ma < j) {
          const V r = V::broadcast(g.rootpq[(j - ma) * (tj + 1) + denom]);
          const int p = (pblk + ma * phs + pcol) * kW;
          const V upre = V::load(ur + p);
          const V upim = V::load(ui + p);
          vre = V::fma(r, V::fmsub(cdr, upre, cdi * upim), vre);
          vim = V::fma(r, V::fma(cdr, upim, cdi * upre), vim);
        }
        const int e = (blk + ma * hs + mb) * kW;
        vre.store_to(ur + e);
        vim.store_to(ui + e);
      }
    }
  }

  // Weighted Utot accumulation: acc += wfc * u. Padded lanes carry
  // wfc = 0, so their recursion output never reaches the accumulator.
  const V w = V::load(g.wfc);
  for (int e = 0; e < g.nh; ++e) {
    const int o = e * kW;
    V::fma(w, V::load(ur + o), V::load(g.acc_re + o)).store_to(g.acc_re + o);
    V::fma(w, V::load(ui + o), V::load(g.acc_im + o)).store_to(g.acc_im + o);
  }
}

template <class V>
void yi_block_impl(const YiBlockArgs& g) {
  constexpr int kW = V::width;
  for (int e = 0; e < g.nh * kW; e += kW) {
    V::zero().store_to(g.y_re + e);
    V::zero().store_to(g.y_im + e);
  }
  int o = 0;
  for (int t = 0; t < g.ntriples; ++t) {
    const int oend = g.triple_end[t];
    const double* ct = g.coeff + t * kW;
    bool live = false;
    for (int l = 0; l < kW; ++l) live = live || ct[l] != 0.0;
    if (!live) {
      o = oend;
      continue;
    }
    const V coeff = V::load(ct);
    for (; o < oend; ++o) {
      const YiOut& out = g.outs[o];
      V zr = V::zero();
      V zi = V::zero();
      for (int r = out.row_begin; r < out.row_end; ++r) {
        const YiRow& row = g.rows[r];
        const double* u1r = g.u_re + row.u1 * kW;
        const double* u1i = g.u_im + row.u1 * kW;
        const double* u2r = g.u_re + row.u2 * kW;
        const double* u2i = g.u_im + row.u2 * kW;
        const double* cg = g.cg + row.cg;
        V sr = V::zero();
        V si = V::zero();
        for (int k = 0; k < row.ncol; ++k) {
          const V ar = V::load(u1r + k * kW);
          const V ai = V::load(u1i + k * kW);
          const V br = V::load(u2r - k * kW);
          const V bi = V::load(u2i - k * kW);
          const V c = V::broadcast(cg[k]);
          // s += cg * (u1 * u2)
          sr = V::fma(c, V::fmsub(ar, br, ai * bi), sr);
          si = V::fma(c, V::fma(ar, bi, ai * br), si);
        }
        const V cr = V::broadcast(row.cg_row);
        zr = V::fma(cr, sr, zr);
        zi = V::fma(cr, si, zi);
      }
      // The half weight is 1 or 2, so folding it into the coefficient is
      // exact: y = weight * sum coeff * z, bit for bit.
      const V c = coeff * V::broadcast(out.weight);
      const int e = out.out * kW;
      V::fma(c, zr, V::load(g.y_re + e)).store_to(g.y_re + e);
      V::fma(c, zi, V::load(g.y_im + e)).store_to(g.y_im + e);
    }
  }
}

template <class V>
void dei_block_impl(const DeiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  const double* ck = g.ck;
  const double* ur = g.ur;
  const double* ui = g.ui;
  double* xr = g.x_re;
  double* xi = g.x_im;

  // Seed the adjoint: S0 = sum_e y[e] . u[e] is linear in U, so its
  // gradient with respect to U is X = Y on every lane. S0 itself shares
  // the sweep.
  V s0 = V::zero();
  for (int e = 0; e < g.nh; ++e) {
    const V yr = V::broadcast(g.y_re[e * g.y_stride]);
    const V yi = V::broadcast(g.y_im[e * g.y_stride]);
    const int o = e * kW;
    yr.store_to(xr + o);
    yi.store_to(xi + o);
    s0 = V::fma(yr, V::load(ur + o), s0);
    s0 = V::fma(yi, V::load(ui + o), s0);
  }

  // One forward term v += r * c * U_p, reversed: with t = r X_v,
  //   X_p += conj(c) t   and   H += U_p conj(t),
  // H = conj(G_c) being the conjugated gradient with respect to c (the
  // conjugate keeps every update one fma + one fma/fmsub).
  const auto term = [&](V r, V cr, V ci, V nci, V xvr, V xvi, int p, V& hr,
                        V& hi) {
    const V tr = r * xvr;
    const V ti = r * xvi;
    const V upr = V::load(ur + p);
    const V upi = V::load(ui + p);
    V::fma(cr, tr, V::fma(ci, ti, V::load(xr + p))).store_to(xr + p);
    V::fma(cr, ti, V::fma(nci, tr, V::load(xi + p))).store_to(xi + p);
    hr = V::fma(upr, tr, V::fma(upi, ti, hr));
    hi = V::fmsub(upi, tr, V::fmsub(upr, ti, hi));
  };

  // Walk the levels downwards: every child of level j - 1 lives on level
  // j, so X_v is complete when v is reached. The gradient with respect to
  // a and b is abar, bbar (dE = Re(conj(abar) da) + Re(conj(bbar) db)).
  const V are = V::load(ck + kCkARe * kW);
  const V aim = V::load(ck + kCkAIm * kW);
  const V bre = V::load(ck + kCkBRe * kW);
  const V bim = V::load(ck + kCkBIm * kW);
  V abr = V::zero();
  V abi = V::zero();
  V bbr = V::zero();
  V bbi = V::zero();
  for (int j = tj; j >= 1; --j) {
    const int blk = g.half_block[j];
    const int pblk = g.half_block[j - 1];
    const int hs = j / 2 + 1;
    const int phs = (j - 1) / 2 + 1;
    for (int mb = 0; mb <= j / 2; ++mb) {
      const bool zc = (mb == 0);
      // cu = zc ? -conj(b) : a ;  cd = zc ? conj(a) : b
      const V cur = zc ? V::neg(bre) : are;
      const V cui = zc ? bim : aim;
      const V cdr = zc ? are : bre;
      const V cdi = zc ? V::neg(aim) : bim;
      const V ncui = V::neg(cui);
      const V ncdi = V::neg(cdi);
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      V hur = V::zero();
      V hui = V::zero();
      V hdr = V::zero();
      V hdi = V::zero();
      for (int ma = 0; ma <= j; ++ma) {
        const int e = (blk + ma * hs + mb) * kW;
        const V xvr = V::load(xr + e);
        const V xvi = V::load(xi + e);
        if (ma > 0) {
          term(V::broadcast(g.rootpq[ma * (tj + 1) + denom]), cur, cui, ncui,
               xvr, xvi, (pblk + (ma - 1) * phs + pcol) * kW, hur, hui);
        }
        if (ma < j) {
          term(V::broadcast(g.rootpq[(j - ma) * (tj + 1) + denom]), cdr, cdi,
               ncdi, xvr, xvi, (pblk + ma * phs + pcol) * kW, hdr, hdi);
        }
      }
      // Map G = conj(H) back to a and b: in the mb = 0 column
      // abar += conj(G_conj(a)) and bbar -= conj(G_-conj(b)), elsewhere
      // abar += G_a and bbar += G_b.
      if (zc) {
        abr = abr + hdr;
        abi = abi + hdi;
        bbr = bbr - hur;
        bbi = bbi - hui;
      } else {
        abr = abr + hur;
        abi = abi - hui;
        bbr = bbr + hdr;
        bbi = bbi - hdi;
      }
    }
  }

  // Product rule d(w fc u) = w (dfc u + fc du) over the Y dot product:
  //   dE_d = w * (dfc_d * S0 + fc * Sd),
  //   Sd = Re(conj(abar) da_d) + Re(conj(bbar) db_d).
  const V w = V::load(ck + kCkW * kW);
  const V fc = V::load(ck + kCkFc * kW);
  for (int d = 0; d < 3; ++d) {
    const V sd = V::fma(abr, V::load(ck + (kCkDaRe0 + d) * kW),
                        V::fma(abi, V::load(ck + (kCkDaIm0 + d) * kW),
                               V::fma(bbr, V::load(ck + (kCkDbRe0 + d) * kW),
                                      bbi * V::load(ck + (kCkDbIm0 + d) * kW))));
    const V dfc = V::load(ck + (kCkDfc0 + d) * kW);
    (w * V::fma(dfc, s0, fc * sd)).store_to(g.out + d * kW);
  }
}

}  // namespace ember::snap::simd
