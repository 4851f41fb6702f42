#pragma once

// Argument blocks and the per-ISA kernel table for the V8 SIMD backend.
//
// Lane layout. A block processes `width` items at once, one per vector
// lane: ui_block and dei_block take one *neighbor* per lane, yi_block one
// *atom* per lane. Every per-lane plane is *lane-interleaved*: the value
// of element e for lane l lives at plane[e * width + l], so one aligned
// vector load at offset e * width reads element e of every lane in the
// block. Planes are 64-byte aligned (common/aligned.hpp) and lane offsets
// are width multiples, so every access is aligned.
//
// Remainder policy. The caller pads short blocks. In ui/dei, inactive
// lanes carry a copy of the last active neighbor's Cayley-Klein
// parameters (keeps the recursion finite) and a zero weight, so their
// contributions vanish in the weighted accumulation and their force
// outputs are ignored. In yi, inactive atom lanes hold zeroed U planes,
// so their Y lanes come out zero and are never read.
//
// The structs below are plain pointers + sizes so this header needs no
// intrinsics; the implementations live in kernels_scalar.cpp (width 1,
// base ISA) and kernels_avx2.cpp / kernels_avx512.cpp (the only TUs
// allowed to include immintrin.h).

namespace ember::snap::simd {

// Lane-packed Cayley-Klein slots for dei_block: slot s of lane l lives at
// ck[s * width + l]. da/db derivative slots are indexed by Cartesian dim.
inline constexpr int kCkARe = 0;
inline constexpr int kCkAIm = 1;
inline constexpr int kCkBRe = 2;
inline constexpr int kCkBIm = 3;
inline constexpr int kCkDaRe0 = 4;   // .. kCkDaRe0 + d, d = 0..2
inline constexpr int kCkDaIm0 = 7;
inline constexpr int kCkDbRe0 = 10;
inline constexpr int kCkDbIm0 = 13;
inline constexpr int kCkFc = 16;
inline constexpr int kCkDfc0 = 17;   // .. kCkDfc0 + d
inline constexpr int kCkW = 20;      // bare neighbor weight wj
inline constexpr int kCkSlots = 21;

// Batched bare-U half-range recursion + weighted Utot accumulation for
// one block. Writes the bare per-neighbor U planes (consumed later by
// dei_block) and accumulates wfc * U into the lane-interleaved Utot
// accumulator (reduced over lanes by the caller after the last block).
struct UiBlockArgs {
  int twojmax = 0;
  const int* half_block = nullptr;  // u_half_block(j) offsets, twojmax+1
  int nh = 0;                       // u_half_total()
  const double* rootpq = nullptr;   // (twojmax+1)^2 sqrt(p/q) table
  // width-packed Cayley-Klein parameters of the block's neighbors
  const double* a_re = nullptr;
  const double* a_im = nullptr;
  const double* b_re = nullptr;
  const double* b_im = nullptr;
  const double* wfc = nullptr;      // wj * fc per lane (0 on padded lanes)
  double* ur = nullptr;             // bare-U planes out, nh * width each
  double* ui = nullptr;
  double* acc_re = nullptr;         // Utot accumulator, += wfc * u
  double* acc_im = nullptr;
};

// Force pass for one block, one neighbor per lane: the reverse (adjoint)
// sweep of the bare-U recursion over the cached U planes. For each lane l
// and Cartesian dim d,
//   out[d * width + l] = w_l * (dfc_dl * S0_l + fc_l * Sd_l)
// with S0 = sum_e y[e] . u[e] over the (weight-folded) half-range Y and
// Sd = dS0/dr_d = Re(conj(abar) da_d) + Re(conj(bbar) db_d), where abar,
// bbar are the gradient of S0 with respect to the Cayley-Klein
// parameters, which one backward pass yields for all three dims at once.
// This is the product rule d(w fc u) = w (dfc u + fc du) distributed over
// the Y dot product.
struct DeiBlockArgs {
  int twojmax = 0;
  const int* half_block = nullptr;
  int nh = 0;
  const double* rootpq = nullptr;
  const double* ck = nullptr;       // kCkSlots * width lane-packed slots
  const double* ur = nullptr;       // cached bare-U planes of this block
  const double* ui = nullptr;
  double* x_re = nullptr;           // adjoint scratch planes, nh * width
  double* x_im = nullptr;
  const double* y_re = nullptr;     // the atom's half-range Y, pre-folded
  const double* y_im = nullptr;     //   with half_weight: element e at
  int y_stride = 1;                 //   y_re[e * y_stride] (read in place
                                    //   from an atom lane of yi_block)
  double* out = nullptr;            // 3 * width: dim-major force lanes
};

// Flattened yi coupling list (SnapIndex::yi_list()). One YiOut per
// half-range output element (2*mb <= j, half weight non-zero) of every
// coupling triple, in triple order; its rows are the non-zero-CG terms of
// the z element
//   z = sum_rows cg_row * sum_{k < ncol} cg[k] * U[u1 + k] * U[u2 - k]
// (complex products over the full-range U), so the kernel carries no
// range math and no zero tests.
struct YiRow {
  int u1 = 0;          // full-U element of the first factor at k = 0
  int u2 = 0;          // full-U element of the second factor at k = 0,
                       //   walked downwards
  int ncol = 0;        // terms in the row
  int cg = 0;          // offset of the row's column CG factors
  double cg_row = 0.0; // the row's own CG factor
};

struct YiOut {
  int out = 0;         // half-layout element the z element accumulates to
  int row_begin = 0;   // rows [row_begin, row_end) of the list
  int row_end = 0;
  double weight = 0.0; // half_weight of `out` (1 or 2), folded into Y
};

// Y contraction for one block of atoms, one atom per lane:
//   y[out] = sum_{entries} weight * coeff[triple] * z
// over lane-interleaved full-U planes, with per-lane coefficient planes
// coeff[t * width + l]. Triples whose coefficient is zero on every lane
// are skipped (their terms would add zero). Y planes are overwritten.
struct YiBlockArgs {
  int ntriples = 0;
  const int* triple_end = nullptr;  // outputs of triple t end here
  const YiOut* outs = nullptr;
  const YiRow* rows = nullptr;
  const double* cg = nullptr;       // column CG factors (YiRow::cg)
  int nh = 0;                       // u_half_total()
  const double* coeff = nullptr;    // ntriples * width
  const double* u_re = nullptr;     // full-range U, u_total * width
  const double* u_im = nullptr;
  double* y_re = nullptr;           // half-range Y out, nh * width,
  double* y_im = nullptr;           //   pre-folded with half_weight
};

struct SimdOps {
  int width = 1;  // lanes per block
  void (*ui_block)(const UiBlockArgs&) = nullptr;
  void (*yi_block)(const YiBlockArgs&) = nullptr;
  void (*dei_block)(const DeiBlockArgs&) = nullptr;
};

// Defined in the per-ISA TUs. scalar_ops() is always built; the vector
// tables only when the toolchain supports the flags
// (EMBER_SNAP_HAVE_AVX2 / EMBER_SNAP_HAVE_AVX512).
[[nodiscard]] const SimdOps& scalar_ops();
[[nodiscard]] const SimdOps& avx2_ops();
[[nodiscard]] const SimdOps& avx512_ops();

}  // namespace ember::snap::simd
