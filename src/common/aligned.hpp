#pragma once

// Cache-line-aligned allocation for SIMD-consumable arrays.
//
// The SNAP kernel stores U, Y and its force-pass adjoint as split re/im
// double planes and the V8 SIMD backend issues *aligned* vector loads
// against them (64-byte alignment covers a full AVX-512 register and one cache
// line; every AVX2 (32-byte) access into a 64-byte-aligned plane whose
// offsets are lane-width multiples is aligned too). std::vector's default
// allocator only guarantees alignof(double) = 8, so the planes use
// aligned_vector<double> below.
//
// AlignedAllocator goes through std::aligned_alloc rather than the
// aligned operator new so the repo-wide no-naked-new rule keeps a single
// code path; aligned_alloc requires the byte count to be a multiple of
// the alignment, so sizes are rounded up.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace ember {

inline constexpr std::size_t kCacheLineBytes = 64;

// True when p is aligned to `align` bytes (align must be a power of two).
inline bool is_aligned(const void* p, std::size_t align = kCacheLineBytes) {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

template <class T, std::size_t Align = kCacheLineBytes>
class AlignedAllocator {
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  static_assert(Align >= alignof(T), "alignment below the type's natural one");

 public:
  using value_type = T;
  static constexpr std::size_t alignment = Align;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = ((n * sizeof(T) + Align - 1) / Align) * Align;
    void* p = std::aligned_alloc(Align, bytes);
    if (p == nullptr) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T, kCacheLineBytes>>;

}  // namespace ember
