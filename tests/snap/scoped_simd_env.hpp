#pragma once

// Scoped EMBER_SIMD override for tests. Bispectrum reads the variable at
// every construction; SnapPotential's per-thread kernels are siblings of
// the one it built at its own construction, so a potential keeps the ISA
// that was in force when it was made.

#include <cstdlib>
#include <string>

namespace ember::snap {

class ScopedSimdEnv {
 public:
  // value == nullptr unsets the variable.
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("EMBER_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("EMBER_SIMD", value, 1);
    } else {
      ::unsetenv("EMBER_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      ::setenv("EMBER_SIMD", old_.c_str(), 1);
    } else {
      ::unsetenv("EMBER_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

}  // namespace ember::snap
