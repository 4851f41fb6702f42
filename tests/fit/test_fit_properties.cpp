// Regression properties of the trainer: weighting semantics, ridge path,
// determinism, and robustness of the standard config generator.

#include <gtest/gtest.h>

#include <cmath>

#include "fit/trainer.hpp"
#include "ref/pair_tersoff.hpp"

namespace ember::fit {
namespace {

snap::SnapParams small_params() {
  snap::SnapParams p;
  p.twojmax = 4;
  p.rcut = 2.7;
  return p;
}

TEST(FitProperties, TrainingIsDeterministic) {
  ref::PairTersoff oracle;
  const auto configs = standard_carbon_configs(6, 5);
  Trainer a(small_params()), b(small_params());
  for (const auto& cfg : configs) {
    a.add_config(cfg, oracle);
    b.add_config(cfg, oracle);
  }
  const auto ma = a.fit();
  const auto mb = b.fit();
  EXPECT_DOUBLE_EQ(ma.beta0, mb.beta0);
  for (std::size_t l = 0; l < ma.beta.size(); ++l) {
    EXPECT_DOUBLE_EQ(ma.beta[l], mb.beta[l]);
  }
}

TEST(FitProperties, RidgeShrinksTheCoefficients) {
  ref::PairTersoff oracle;
  const auto configs = standard_carbon_configs(6, 7);
  auto norm_at = [&](double ridge) {
    Trainer t(small_params(), FitOptions{100.0, 1.0, ridge});
    for (const auto& cfg : configs) t.add_config(cfg, oracle);
    const auto m = t.fit();
    double norm = 0.0;
    for (const double b : m.beta) norm += b * b;
    return std::sqrt(norm);
  };
  const double loose = norm_at(1e-8);
  const double tight = norm_at(1e2);
  const double extreme = norm_at(1e6);
  EXPECT_GT(loose, tight);
  EXPECT_GT(tight, extreme);
}

TEST(FitProperties, EnergyWeightTradesForceAccuracy) {
  ref::PairTersoff oracle;
  const auto configs = standard_carbon_configs(8, 9);
  auto fit_with = [&](double ew, double fw) {
    Trainer t(small_params(), FitOptions{ew, fw, 1e-9});
    for (const auto& cfg : configs) t.add_config(cfg, oracle);
    const auto m = t.fit();
    Trainer eval(small_params());
    for (const auto& cfg : configs) eval.add_config(cfg, oracle);
    return eval.evaluate(m);
  };
  const auto energy_heavy = fit_with(1e5, 1e-3);
  const auto force_heavy = fit_with(1e-3, 1e2);
  EXPECT_LT(energy_heavy.energy_rmse_per_atom,
            force_heavy.energy_rmse_per_atom);
  EXPECT_LT(force_heavy.force_rmse, energy_heavy.force_rmse);
}

TEST(FitProperties, StandardConfigsAreDiverseAndWellFormed) {
  const auto configs = standard_carbon_configs(12, 11);
  ASSERT_EQ(configs.size(), 12u);
  // Four structure families by construction; sizes differ.
  std::set<int> sizes;
  for (const auto& sys : configs) {
    EXPECT_GT(sys.nlocal(), 8);
    EXPECT_GT(sys.box().volume(), 0.0);
    sizes.insert(sys.nlocal());
  }
  EXPECT_GE(sizes.size(), 3u);
  // Determinism of the generator.
  const auto again = standard_carbon_configs(12, 11);
  EXPECT_DOUBLE_EQ(again[3].x[5].x, configs[3].x[5].x);
}

TEST(FitProperties, EvaluateOnEmptyTrainerIsSafe) {
  Trainer t(small_params());
  EXPECT_THROW((void)t.fit(), Error);
  // Evaluating a model on no configurations reports zero error, not NaN.
  snap::SnapModel model;
  model.params = small_params();
  model.beta.assign(snap::SnapIndex(model.params.twojmax).num_b(), 0.0);
  const FitMetrics m = t.evaluate(model);
  EXPECT_EQ(m.n_configs, 0);
  EXPECT_EQ(m.n_force_rows, 0);
  EXPECT_TRUE(std::isfinite(m.energy_rmse_per_atom));
  EXPECT_TRUE(std::isfinite(m.force_rmse));
  EXPECT_TRUE(std::isfinite(m.force_rms_label));
}

TEST(FitProperties, ZeroAtomConfigIsRejected) {
  // An empty configuration would give its energy row weight 1/0 and turn
  // the normal equations into NaN; both entry points refuse it.
  ref::PairTersoff oracle;
  Trainer t(small_params());
  const md::System empty(md::Box(10.0, 10.0, 10.0), 12.011);
  EXPECT_THROW(t.add_config(empty, oracle), Error);
  TrainingConfig cfg;
  cfg.system = empty;
  EXPECT_THROW(t.add_labelled(cfg), Error);
  EXPECT_EQ(t.num_configs(), 0);
}

}  // namespace
}  // namespace ember::fit
