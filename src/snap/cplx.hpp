#pragma once

// Lightweight complex type for the SNAP kernels.
//
// std::complex<double> multiplication lowers to the __muldc3 runtime call
// under strict IEEE rules (NaN/Inf fix-up), which destroys vectorization in
// the U-recursion hot loop. Cplx provides the naive arithmetic the kernels
// need; inputs are always finite by construction.
//
// CplxSoaView / CplxSoaConstView are span-based views over split re/im
// planes (structure-of-arrays): the production kernel stores U, Y and its
// force-pass adjoint as contiguous double planes so its contractions
// reduce to unit-stride real dot products that autovectorize.

#include <span>

namespace ember::snap {

struct Cplx {
  double re = 0.0;
  double im = 0.0;

  constexpr Cplx() = default;
  constexpr Cplx(double r, double i) : re(r), im(i) {}

  constexpr Cplx& operator+=(const Cplx& o) {
    re += o.re;
    im += o.im;
    return *this;
  }
  constexpr Cplx& operator-=(const Cplx& o) {
    re -= o.re;
    im -= o.im;
    return *this;
  }
  constexpr Cplx& operator*=(double s) {
    re *= s;
    im *= s;
    return *this;
  }
};

constexpr Cplx operator+(Cplx a, const Cplx& b) { return a += b; }
constexpr Cplx operator-(Cplx a, const Cplx& b) { return a -= b; }
constexpr Cplx operator*(Cplx a, double s) { return a *= s; }
constexpr Cplx operator*(double s, Cplx a) { return a *= s; }
constexpr Cplx operator*(const Cplx& a, const Cplx& b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
constexpr Cplx conj(const Cplx& a) { return {a.re, -a.im}; }
constexpr Cplx operator-(const Cplx& a) { return {-a.re, -a.im}; }

// Re(a * conj(b)) — the contraction primitive of B = Z : U* and of the
// Listing-1 Z : dU* force loop.
constexpr double re_mul_conj(const Cplx& a, const Cplx& b) {
  return a.re * b.re + a.im * b.im;
}

// Mutable view over split re/im planes of equal length.
struct CplxSoaView {
  std::span<double> re;
  std::span<double> im;

  [[nodiscard]] Cplx load(std::size_t i) const { return {re[i], im[i]}; }
  void store(std::size_t i, const Cplx& v) const {
    re[i] = v.re;
    im[i] = v.im;
  }
  void accumulate(std::size_t i, const Cplx& v) const {
    re[i] += v.re;
    im[i] += v.im;
  }
  [[nodiscard]] std::size_t size() const { return re.size(); }
  [[nodiscard]] CplxSoaView subview(std::size_t offset) const {
    return {re.subspan(offset), im.subspan(offset)};
  }
};

// Read-only counterpart.
struct CplxSoaConstView {
  std::span<const double> re;
  std::span<const double> im;

  CplxSoaConstView() = default;
  CplxSoaConstView(std::span<const double> r, std::span<const double> i)
      : re(r), im(i) {}
  CplxSoaConstView(const CplxSoaView& v) : re(v.re), im(v.im) {}

  [[nodiscard]] Cplx load(std::size_t i) const { return {re[i], im[i]}; }
  [[nodiscard]] std::size_t size() const { return re.size(); }
  [[nodiscard]] CplxSoaConstView subview(std::size_t offset) const {
    return {re.subspan(offset), im.subspan(offset)};
  }
};

}  // namespace ember::snap
