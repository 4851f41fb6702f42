#pragma once

// Runtime ISA dispatch for the SNAP "V8" SIMD kernels.
//
// The production SNAP kernel batches the Wigner-U recursion and its
// reverse (adjoint) sweep, the force pass, over blocks of neighbors, one
// neighbor per vector lane, and the Y contraction over blocks of atoms,
// one atom per lane (1 lane for Scalar, 4 for AVX2, 8 for AVX-512). Every tier runs
// the same width-generic kernels (kernels_impl.hpp); which table runs is
// decided at runtime, once per Bispectrum construction; EMBER_SIMD is the
// only knob:
//
//   max_supported_isa()  CPUID probe of the executing machine, clamped to
//                        the backends this binary was built with (non-x86
//                        builds compile neither and always report Scalar).
//   choose_isa()         max_supported_isa() further clamped by the
//                        EMBER_SIMD environment variable
//                        ("avx512" | "avx2" | "scalar"); unknown values
//                        throw. The override can only lower the ISA —
//                        requesting AVX-512 on an AVX2 host yields AVX2.
//
// EMBER_SIMD=scalar runs the width-1 table (kernels_scalar.cpp). The
// references every tier is checked against are TestSNAP's Listing-1
// per-neighbor dE (listing1_deidrj), closed-form Wigner U and TestSNAP V3
// (tests/snap/).
//
// This header is intrinsics-free; immintrin.h is confined to the
// kernels_avx*.cpp translation units (enforced by ember_lint's
// simd-intrinsics-include rule).

namespace ember::snap::simd {

enum class SimdIsa {
  Scalar,  // 1 lane, base ISA (kernels_scalar.cpp)
  Avx2,    // 4 lanes per 256-bit register
  Avx512,  // 8 lanes per 512-bit register
};

[[nodiscard]] const char* to_string(SimdIsa isa);

// Lanes per vector register (1 for Scalar): neighbors per ui/dei block,
// atoms per yi block.
[[nodiscard]] int lane_width(SimdIsa isa);

// Best ISA the executing CPU *and* this binary support (cached probe).
[[nodiscard]] SimdIsa max_supported_isa();

// max_supported_isa() clamped by EMBER_SIMD; reads the environment on
// every call so tests can flip the override between kernel constructions.
[[nodiscard]] SimdIsa choose_isa();

struct SimdOps;

// Kernel table for an ISA; never null. An ISA this binary was built
// without falls back to the width-1 scalar table.
[[nodiscard]] const SimdOps& ops_for(SimdIsa isa);

}  // namespace ember::snap::simd
