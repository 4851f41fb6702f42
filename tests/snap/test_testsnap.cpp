// The eight TestSNAP kernel variants must all compute identical forces;
// the optimization progression must actually be a progression.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "snap/testsnap.hpp"

namespace ember::snap {
namespace {

// Per-variant minimum grind time over `rounds` interleaved runs (a, b,
// a, b, ...): a burst of host load then lands on both variants alike
// instead of deciding one side of the comparison.
std::pair<double, double> interleaved_grind(TestSnap& ts, TestSnapVariant a,
                                            TestSnapVariant b,
                                            int rounds = 7) {
  double ta = std::numeric_limits<double>::infinity();
  double tb = ta;
  for (int r = 0; r < rounds; ++r) {
    ta = std::min(ta, ts.grind_time(a, 1));
    tb = std::min(tb, ts.grind_time(b, 1));
  }
  return {ta, tb};
}

class TestSnapVariants : public ::testing::TestWithParam<int> {};

TEST_P(TestSnapVariants, AllVariantsAgreeWithBaseline) {
  SnapParams p;
  p.twojmax = GetParam();
  p.rcut = 4.7;
  TestSnap ts(p, 24, 20, 7);

  ts.run(TestSnapVariant::V0_Baseline);
  std::vector<Vec3> ref(ts.forces().begin(), ts.forces().end());
  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, f.norm());

  for (const auto v : kAllTestSnapVariants) {
    ts.run(v);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(ts.forces()[i][d], ref[i][d], 1e-9 * std::max(1.0, fscale))
            << to_string(v) << " atom " << i << " dim " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoJmax, TestSnapVariants,
                         ::testing::Values(2, 4, 8, 14));

TEST(TestSnapTiming, AdjointBeatsBaseline) {
  // The paper's headline algorithmic claim, on any hardware: the adjoint
  // refactorization removes the O(J^5) per-neighbor work.
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 100, 26, 11);
  const auto [t0, t3] = interleaved_grind(ts, TestSnapVariant::V0_Baseline,
                                          TestSnapVariant::V3_Adjoint);
  EXPECT_LT(t3, 0.7 * t0);
}

TEST(TestSnapTiming, HalfRangeBeatsFullRange) {
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 100, 26, 13);
  const auto [t4, t5] = interleaved_grind(ts, TestSnapVariant::V4_Fused,
                                          TestSnapVariant::V5_HalfMb);
  EXPECT_LT(t5, t4);
}

TEST(TestSnapTiming, ProgressionEndsFasterThanItStarts) {
  SnapParams p;
  p.twojmax = 8;
  TestSnap ts(p, 60, 26, 17);
  const auto [t0, t7] = interleaved_grind(ts, TestSnapVariant::V0_Baseline,
                                          TestSnapVariant::V7_CachedCk);
  EXPECT_LT(t7, 0.5 * t0);
}

}  // namespace
}  // namespace ember::snap
