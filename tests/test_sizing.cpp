// Unit tests for intooa::sizing — single-design evaluation, constrained
// ranking, and the inner BO sizing loop (full and subset-restricted).

#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "sizing/evaluate.hpp"
#include "sizing/sizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;
using namespace intooa::sizing;

EvalContext s1_context() {
  return EvalContext(circuit::spec_by_name("S-1"));
}

TEST(Evaluate, ContextTakesLoadCapFromSpec) {
  const EvalContext ctx(circuit::spec_by_name("S-5"));
  EXPECT_DOUBLE_EQ(ctx.behavioral.load_cap, 10e-9);
  EXPECT_EQ(ctx.spec.name, "S-5");
}

TEST(Evaluate, NmcDesignProducesConsistentPoint) {
  const EvalContext ctx = s1_context();
  const auto topo = circuit::named_topology("NMC");
  const std::vector<double> vals = {100e-6, 100e-6, 1e-3, 2e-12};
  const EvalPoint p = evaluate_sized(topo, vals, ctx);
  ASSERT_TRUE(p.perf.valid) << p.perf.failure;
  EXPECT_GT(p.fom, 0.0);
  EXPECT_EQ(p.feasible, ctx.spec.satisfied(p.perf));
  EXPECT_NEAR(p.objective(), std::log10(p.fom), 1e-12);
}

TEST(Evaluate, BadParameterVectorIsInfeasibleNotFatal) {
  const EvalContext ctx = s1_context();
  const EvalPoint p =
      evaluate_sized(circuit::named_topology("NMC"),
                     std::vector<double>{1e-4, 1e-4}, ctx);  // wrong size
  EXPECT_FALSE(p.perf.valid);
  EXPECT_FALSE(p.feasible);
  EXPECT_GT(p.violation(), 1.0);
}

TEST(Evaluate, BetterThanRanking) {
  EvalPoint feasible_small;
  feasible_small.feasible = true;
  feasible_small.fom = 10.0;
  EvalPoint feasible_big = feasible_small;
  feasible_big.fom = 20.0;
  EvalPoint infeasible;
  infeasible.feasible = false;
  infeasible.margins = {1.0, 0.0, 0.0, 0.0};
  EvalPoint worse_infeasible;
  worse_infeasible.feasible = false;
  worse_infeasible.margins = {2.0, 0.5, 0.0, 0.0};

  EXPECT_TRUE(better_than(feasible_big, feasible_small));
  EXPECT_FALSE(better_than(feasible_small, feasible_big));
  EXPECT_TRUE(better_than(feasible_small, infeasible));
  EXPECT_TRUE(better_than(infeasible, worse_infeasible));
  EXPECT_FALSE(better_than(worse_infeasible, feasible_small));
}

TEST(Sizer, RespectsSimulationBudget) {
  SizingConfig config;
  config.init_points = 5;
  config.iterations = 7;
  config.candidates = 64;
  const Sizer sizer(s1_context(), config);
  util::Rng rng(41);
  const SizedResult result = sizer.size(circuit::named_topology("NMC"), rng);
  EXPECT_EQ(result.simulations, 12u);
  EXPECT_EQ(result.history.size(), 12u);
  EXPECT_EQ(result.best_values.size(), 4u);
}

TEST(Sizer, FindsFeasibleNmcSizingForS1) {
  // NMC is a known-good topology for S-1; the default 10+30 loop should
  // find a feasible sizing.
  const Sizer sizer(s1_context());
  util::Rng rng(42);
  const SizedResult result = sizer.size(circuit::named_topology("NMC"), rng);
  EXPECT_TRUE(result.best.feasible)
      << "violation=" << result.best.violation()
      << " failure=" << result.best.perf.failure;
  EXPECT_GT(result.best.fom, 0.0);
}

TEST(Sizer, BestIsBestOfHistory) {
  SizingConfig config;
  config.init_points = 6;
  config.iterations = 6;
  const Sizer sizer(s1_context(), config);
  util::Rng rng(43);
  const SizedResult result = sizer.size(circuit::named_topology("NMC"), rng);
  for (const auto& point : result.history) {
    EXPECT_FALSE(better_than(point, result.best));
  }
}

TEST(Sizer, SubsetResizeKeepsFixedParameters) {
  const EvalContext ctx = s1_context();
  SizingConfig config;
  config.init_points = 4;
  config.iterations = 4;
  const Sizer sizer(ctx, config);
  const auto topo = circuit::named_topology("NMC");
  const auto schema = circuit::make_schema(topo, ctx.behavioral);
  const std::vector<double> base = {100e-6, 100e-6, 1e-3, 2e-12};
  const std::vector<std::size_t> free_idx = {
      schema.index_of("v1-vout.C")};  // only the Miller cap moves
  util::Rng rng(44);
  const SizedResult result =
      sizer.resize_subset(topo, base, free_idx, rng, 8);
  EXPECT_EQ(result.simulations, 8u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(result.best_values[i], base[i], base[i] * 1e-9)
        << "fixed parameter " << schema.params[i].name << " moved";
  }
}

TEST(Sizer, SubsetResizeStartsFromBasePoint) {
  const EvalContext ctx = s1_context();
  SizingConfig config;
  config.init_points = 3;
  config.iterations = 2;
  const Sizer sizer(ctx, config);
  const auto topo = circuit::named_topology("NMC");
  const std::vector<double> base = {100e-6, 100e-6, 1e-3, 2e-12};
  const std::vector<std::size_t> free_idx = {3};
  util::Rng rng(45);
  const SizedResult result = sizer.resize_subset(topo, base, free_idx, rng, 6);
  // The first history point is the base design itself.
  const EvalPoint base_point = evaluate_sized(topo, base, ctx);
  EXPECT_NEAR(result.history.front().fom, base_point.fom, 1e-9);
}

TEST(Sizer, Validation) {
  SizingConfig bad;
  bad.init_points = 1;
  EXPECT_THROW(Sizer(s1_context(), bad), std::invalid_argument);
  SizingConfig bad2;
  bad2.candidates = 0;
  EXPECT_THROW(Sizer(s1_context(), bad2), std::invalid_argument);

  const Sizer sizer(s1_context());
  util::Rng rng(46);
  const auto topo = circuit::named_topology("NMC");
  EXPECT_THROW(
      sizer.resize_subset(topo, std::vector<double>{1.0}, std::vector<std::size_t>{0}, rng),
      std::invalid_argument);
  const std::vector<double> base = {100e-6, 100e-6, 1e-3, 2e-12};
  EXPECT_THROW(
      sizer.resize_subset(topo, base, std::vector<std::size_t>{99}, rng),
      std::invalid_argument);
}

TEST(Sizer, HistoryFomMatchesFeasibility) {
  SizingConfig config;
  config.init_points = 5;
  config.iterations = 5;
  const Sizer sizer(s1_context(), config);
  util::Rng rng(47);
  const SizedResult result = sizer.size(circuit::named_topology("C1"), rng);
  for (const auto& point : result.history) {
    if (point.feasible) {
      EXPECT_TRUE(point.perf.valid);
      EXPECT_DOUBLE_EQ(point.violation(), 0.0);
    }
    if (!point.perf.valid) {
      EXPECT_DOUBLE_EQ(point.fom, 0.0);
    }
  }
}

}  // namespace
