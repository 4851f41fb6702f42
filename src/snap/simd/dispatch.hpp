#pragma once

// Runtime ISA dispatch for the SNAP "V8" SIMD kernels.
//
// The production SNAP kernel batches the Wigner-U recursion and the
// Y : dU* adjoint contraction over blocks of neighbors, one neighbor per
// vector lane (4 for AVX2, 8 for AVX-512). Which backend runs is decided
// at runtime, once per Bispectrum construction; EMBER_SIMD is the only
// knob:
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
// Scalar means "no SimdOps table": Bispectrum then executes the same
// half-range math as plain scalar loops (the TestSNAP V7-style cached
// scheme; its parity with every vector backend is pinned by
// tests/snap/test_simd_kernel.cpp).
//
// This header is intrinsics-free; immintrin.h is confined to the
// kernels_avx*.cpp translation units (enforced by ember_lint's
// simd-intrinsics-include rule).

namespace ember::snap::simd {

enum class SimdIsa {
  Scalar,  // no vector backend; scalar half-range loops run
  Avx2,    // 4 neighbor lanes per 256-bit register
  Avx512,  // 8 neighbor lanes per 512-bit register
};

[[nodiscard]] const char* to_string(SimdIsa isa);

// Neighbor lanes per vector register (1 for Scalar).
[[nodiscard]] int lane_width(SimdIsa isa);

// Best ISA the executing CPU *and* this binary support (cached probe).
[[nodiscard]] SimdIsa max_supported_isa();

// max_supported_isa() clamped by EMBER_SIMD; reads the environment on
// every call so tests can flip the override between kernel constructions.
[[nodiscard]] SimdIsa choose_isa();

struct SimdOps;

// Kernel table for a vector ISA, or nullptr for Scalar (callers fall
// back to the scalar loops).
[[nodiscard]] const SimdOps* ops_for(SimdIsa isa);

}  // namespace ember::snap::simd
