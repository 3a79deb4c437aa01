// Unit tests for intooa::core — the evaluator's caching/accounting, the
// mutation+random candidate generator, Algorithm 1, the interpretability
// layer and gradient-guided refinement.

#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "circuit/library.hpp"
#include "core/eval_key.hpp"
#include "core/candidates.hpp"
#include "core/evaluator.hpp"
#include "core/interpret.hpp"
#include "core/optimizer.hpp"
#include "core/refine.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;
using namespace intooa::core;

sizing::EvalContext s1_context() {
  return sizing::EvalContext(circuit::spec_by_name("S-1"));
}

sizing::SizingConfig fast_sizing() {
  sizing::SizingConfig config;
  config.init_points = 4;
  config.iterations = 4;
  config.candidates = 64;
  return config;
}

TEST(Evaluator, CountsAndCaches) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  const auto nmc = circuit::named_topology("NMC");
  EXPECT_FALSE(evaluator.visited(nmc));
  evaluator.evaluate(nmc);
  EXPECT_TRUE(evaluator.visited(nmc));
  EXPECT_EQ(evaluator.total_simulations(), 8u);
  EXPECT_EQ(evaluator.history().size(), 1u);

  // Cache hit: no new simulations, no new history entry.
  evaluator.evaluate(nmc);
  EXPECT_EQ(evaluator.total_simulations(), 8u);
  EXPECT_EQ(evaluator.history().size(), 1u);

  evaluator.evaluate(circuit::named_topology("C1"));
  EXPECT_EQ(evaluator.total_simulations(), 16u);
  EXPECT_EQ(evaluator.history()[1].sims_before, 8u);
}

TEST(Evaluator, CacheHitLeavesAccountingUntouched) {
  // Re-evaluating a visited topology must be free: no history growth, no
  // simulation charge, no extension of the Fig. 5 curve — the invariant the
  // checkpoint-resume layer and the paper's cost accounting both rely on.
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  const auto nmc = circuit::named_topology("NMC");
  const auto c1 = circuit::named_topology("C1");
  evaluator.evaluate(nmc);
  evaluator.evaluate(c1);

  const auto history_size = evaluator.history().size();
  const auto sims = evaluator.total_simulations();
  const auto curve = evaluator.fom_curve();

  const auto& hit1 = evaluator.evaluate(nmc);
  const auto& hit2 = evaluator.evaluate(c1);
  EXPECT_EQ(hit1.topology, nmc);
  EXPECT_EQ(hit2.topology, c1);
  EXPECT_EQ(evaluator.history().size(), history_size);
  EXPECT_EQ(evaluator.total_simulations(), sims);
  EXPECT_EQ(evaluator.fom_curve(), curve);  // same length AND same tail
}

TEST(Evaluator, RestoreReplaysAccounting) {
  TopologyEvaluator original(s1_context(), fast_sizing());
  original.evaluate(circuit::named_topology("NMC"));
  original.evaluate(circuit::named_topology("C1"));

  TopologyEvaluator restored(s1_context(), fast_sizing());
  for (const auto& record : original.history()) restored.restore(record);
  EXPECT_EQ(restored.total_simulations(), original.total_simulations());
  EXPECT_EQ(restored.history().size(), original.history().size());
  EXPECT_EQ(restored.fom_curve(), original.fom_curve());
  EXPECT_TRUE(restored.visited(circuit::named_topology("NMC")));
  // Restored entries behave like evaluated ones: cache hits stay free.
  restored.evaluate(circuit::named_topology("C1"));
  EXPECT_EQ(restored.total_simulations(), original.total_simulations());
}

TEST(Evaluator, FomCurveMonotoneAndSized) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  evaluator.evaluate(circuit::named_topology("NMC"));
  evaluator.evaluate(circuit::named_topology("C1"));
  const auto curve = evaluator.fom_curve();
  EXPECT_EQ(curve.size(), evaluator.total_simulations());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
}

TEST(Evaluator, BestSelectors) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  EXPECT_FALSE(evaluator.best_overall().has_value());
  evaluator.evaluate(circuit::named_topology("NMC"));
  evaluator.evaluate(circuit::named_topology("bare"));
  ASSERT_TRUE(evaluator.best_overall().has_value());
  const auto best_f = evaluator.best_feasible();
  if (best_f) {
    EXPECT_TRUE(evaluator.history()[*best_f].sized.best.feasible);
  }
}

TEST(Candidates, PoolSizeAndUnvisited) {
  util::Rng rng(54);
  CandidateConfig config;
  config.pool_size = 100;
  std::unordered_set<std::size_t> visited;
  for (int i = 0; i < 50; ++i) {
    visited.insert(circuit::Topology::random(rng).index());
  }
  const std::vector<circuit::Topology> seeds = {
      circuit::named_topology("NMC")};
  const auto pool = generate_candidates(config, seeds, visited, rng);
  EXPECT_EQ(pool.size(), 100u);
  std::unordered_set<std::size_t> seen;
  for (const auto& topo : pool) {
    EXPECT_EQ(visited.count(topo.index()), 0u);
    EXPECT_TRUE(seen.insert(topo.index()).second) << "duplicate in pool";
  }
}

TEST(Candidates, MutantsClusterNearSeeds) {
  util::Rng rng(55);
  CandidateConfig config;
  config.pool_size = 200;
  config.mutation_fraction = 1.0;  // all mutants
  const circuit::Topology seed = circuit::named_topology("NMC");
  const std::vector<circuit::Topology> seeds = {seed};
  const auto pool = generate_candidates(config, seeds, {}, rng);
  double total_distance = 0.0;
  for (const auto& topo : pool) {
    total_distance += static_cast<double>(topo.hamming_distance(seed));
  }
  // Expected ~1.2 mutations/child; allow generous headroom but far below
  // the ~3.9 expected of uniform random topologies.
  EXPECT_LT(total_distance / static_cast<double>(pool.size()), 2.0);
}

TEST(Candidates, RandomFractionExploresGlobally) {
  util::Rng rng(56);
  CandidateConfig config;
  config.pool_size = 200;
  config.mutation_fraction = 0.0;  // INTO-OA-r
  const std::vector<circuit::Topology> seeds = {
      circuit::named_topology("NMC")};
  const auto pool = generate_candidates(config, seeds, {}, rng);
  double total_distance = 0.0;
  for (const auto& topo : pool) {
    total_distance += static_cast<double>(
        topo.hamming_distance(circuit::named_topology("NMC")));
  }
  EXPECT_GT(total_distance / static_cast<double>(pool.size()), 3.0);
}

TEST(Candidates, EmptySeedsFallBackToRandom) {
  util::Rng rng(57);
  CandidateConfig config;
  config.pool_size = 50;
  config.mutation_fraction = 0.5;
  const auto pool = generate_candidates(config, {}, {}, rng);
  EXPECT_EQ(pool.size(), 50u);
}

TEST(Candidates, Validation) {
  util::Rng rng(58);
  CandidateConfig config;
  config.pool_size = 0;
  EXPECT_THROW(generate_candidates(config, {}, {}, rng),
               std::invalid_argument);
  config.pool_size = 10;
  config.mutation_fraction = 1.5;
  EXPECT_THROW(generate_candidates(config, {}, {}, rng),
               std::invalid_argument);
}

OptimizerConfig fast_optimizer() {
  OptimizerConfig config;
  config.init_topologies = 5;
  config.iterations = 6;
  config.candidates.pool_size = 40;
  config.wlgp.max_h = 3;
  return config;
}

TEST(Optimizer, RunsAlgorithmOneWithinBudget) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  IntoOaOptimizer optimizer(fast_optimizer());
  util::Rng rng(59);
  const OptimizationOutcome outcome = optimizer.run(evaluator, rng);
  EXPECT_EQ(evaluator.history().size(), 11u);  // 5 init + 6 iterations
  EXPECT_EQ(evaluator.total_simulations(), 11u * 8u);
  ASSERT_TRUE(outcome.best_index.has_value());
  EXPECT_TRUE(optimizer.objective_model().trained());
  for (std::size_t i = 0; i < circuit::Spec::kConstraintCount; ++i) {
    EXPECT_TRUE(optimizer.constraint_model(i).trained());
  }
}

TEST(Optimizer, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    TopologyEvaluator evaluator(s1_context(), fast_sizing());
    IntoOaOptimizer optimizer(fast_optimizer());
    util::Rng rng(seed);
    optimizer.run(evaluator, rng);
    std::vector<std::size_t> sequence;
    for (const auto& record : evaluator.history()) {
      sequence.push_back(record.topology.index());
    }
    return sequence;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Optimizer, ModelsBeforeRunThrow) {
  IntoOaOptimizer optimizer(fast_optimizer());
  EXPECT_THROW(optimizer.objective_model(), std::logic_error);
  EXPECT_THROW(optimizer.constraint_model(0), std::logic_error);
  EXPECT_THROW(optimizer.constraint_model(99), std::out_of_range);
}

TEST(Optimizer, ResumeSeedsVisitedFromHistory) {
  // Uninterrupted reference campaign.
  TopologyEvaluator full(s1_context(), fast_sizing());
  IntoOaOptimizer ref(fast_optimizer());
  util::Rng ref_rng(63);
  const OptimizationOutcome ref_outcome = ref.run(full, ref_rng);

  // Restore the complete history into a fresh evaluator, as the campaign
  // checkpoint layer does.
  TopologyEvaluator restored(s1_context(), fast_sizing());
  for (const auto& record : full.history()) restored.restore(record);
  const std::size_t base = restored.history().size();
  const std::size_t base_sims = restored.total_simulations();

  // A zero-iteration resumed run must reconstruct the reference outcome
  // from the restored records alone: the restored history counts toward
  // init_topologies, so the init loop adds nothing.
  OptimizerConfig zero_iters = fast_optimizer();
  zero_iters.iterations = 0;
  IntoOaOptimizer reread(zero_iters);
  util::Rng reread_rng(64);
  const OptimizationOutcome again = reread.run(restored, reread_rng);
  EXPECT_EQ(restored.history().size(), base);
  EXPECT_EQ(restored.total_simulations(), base_sims);
  EXPECT_EQ(again.best_index, ref_outcome.best_index);
  EXPECT_EQ(again.best_topology, ref_outcome.best_topology);

  // Continuing with more iterations must never re-propose a restored
  // topology: growth is exactly the iteration count, every history index
  // unique.
  IntoOaOptimizer resumed(fast_optimizer());
  util::Rng resume_rng(65);
  resumed.run(restored, resume_rng);
  EXPECT_EQ(restored.history().size(), base + fast_optimizer().iterations);
  EXPECT_EQ(restored.total_simulations(),
            base_sims + fast_optimizer().iterations * 8u);
  std::unordered_set<std::size_t> seen;
  for (const auto& record : restored.history()) {
    EXPECT_TRUE(seen.insert(record.topology.index()).second);
  }

  // Pointing a used optimizer at a fresh evaluator drops the stale fit
  // cache (its records are no longer a history prefix) and runs normally.
  TopologyEvaluator fresh(s1_context(), fast_sizing());
  util::Rng fresh_rng(66);
  ref.run(fresh, fresh_rng);
  EXPECT_EQ(fresh.history().size(), 11u);  // 5 init + 6 iterations
}

TEST(Interpret, SlotImpactsCoverOccupiedSlots) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  IntoOaOptimizer optimizer(fast_optimizer());
  util::Rng rng(60);
  optimizer.run(evaluator, rng);

  const circuit::Topology topo =
      circuit::named_topology("C1");  // two occupied slots
  const auto impacts =
      slot_impacts(optimizer.objective_model(), topo, 1);
  std::unordered_set<int> slots_seen;
  for (const auto& impact : impacts) {
    ASSERT_TRUE(impact.slot.has_value());
    slots_seen.insert(static_cast<int>(*impact.slot));
    EXPECT_FALSE(impact.structure.empty());
    EXPECT_GE(impact.depth, 0);
  }
  EXPECT_EQ(slots_seen.size(), 2u);
}

TEST(Interpret, SlotGradientConsistentWithImpacts) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  IntoOaOptimizer optimizer(fast_optimizer());
  util::Rng rng(61);
  optimizer.run(evaluator, rng);
  const auto& model = optimizer.constraint_model(2);  // PM margin
  const circuit::Topology topo = circuit::named_topology("C1");
  const double g = slot_gradient(model, topo, circuit::Slot::V1Vout, 1);
  const auto impacts = slot_impacts(model, topo, 1);
  bool found = false;
  for (const auto& impact : impacts) {
    if (impact.slot == circuit::Slot::V1Vout &&
        impact.depth == std::min(1, model.chosen_h())) {
      EXPECT_NEAR(impact.gradient, g, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // None slots attribute zero gradient.
  EXPECT_DOUBLE_EQ(
      slot_gradient(model, topo, circuit::Slot::VinV2, 1), 0.0);
}

TEST(Interpret, TopStructuresSortedByMagnitude) {
  TopologyEvaluator evaluator(s1_context(), fast_sizing());
  IntoOaOptimizer optimizer(fast_optimizer());
  util::Rng rng(62);
  optimizer.run(evaluator, rng);
  const auto top = top_structures(optimizer.objective_model(), 5, 1);
  EXPECT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::fabs(top[i - 1].gradient), std::fabs(top[i].gradient));
  }
  for (const auto& s : top) EXPECT_LE(s.depth, 1);
}

TEST(Refine, ImprovesOrAtLeastAttempts) {
  // Train models on an S-5 mini-campaign, then refine C1 for S-5 (the
  // paper's refinement scenario).
  sizing::EvalContext ctx(circuit::spec_by_name("S-5"));
  TopologyEvaluator evaluator(ctx, fast_sizing());
  OptimizerConfig config = fast_optimizer();
  config.iterations = 8;
  IntoOaOptimizer optimizer(config);
  util::Rng rng(63);
  optimizer.run(evaluator, rng);

  RefineModels models;
  models.objective = &optimizer.objective_model();
  for (std::size_t i = 0; i < circuit::Spec::kConstraintCount; ++i) {
    models.constraints[i] = &optimizer.constraint_model(i);
  }

  // A trusted C1 sizing (mid-range parameters).
  const auto trusted = circuit::named_topology("C1");
  const auto schema = circuit::make_schema(trusted, ctx.behavioral);
  std::vector<double> unit(schema.size(), 0.5);
  const auto base = schema.from_unit(unit);

  RefineConfig refine_config;
  refine_config.sims_per_attempt = 12;
  refine_config.max_alternatives = 3;
  const Refiner refiner(ctx, refine_config);
  const RefineResult result = refiner.refine(trusted, base, models, rng);

  EXPECT_EQ(result.original, trusted);
  EXPECT_FALSE(result.attempts.empty());
  EXPECT_LE(result.attempts.size(), 3u);
  EXPECT_GT(result.simulations, 0u);
  // The refined topology differs from the original in at most one slot.
  EXPECT_LE(result.refined.hamming_distance(trusted), 1u);
  if (result.success) {
    EXPECT_TRUE(result.refined_point.feasible);
    EXPECT_NE(result.new_type, result.old_type);
  }
}

TEST(Refine, RequiresTrainedModel) {
  const Refiner refiner(s1_context());
  RefineModels empty;
  util::Rng rng(64);
  const auto trusted = circuit::named_topology("C1");
  const auto schema =
      circuit::make_schema(trusted, s1_context().behavioral);
  std::vector<double> unit(schema.size(), 0.5);
  EXPECT_THROW(
      refiner.refine(trusted, schema.from_unit(unit), empty, rng),
      std::invalid_argument);
}

TEST(Refine, Validation) {
  EXPECT_THROW(Refiner(s1_context(), RefineConfig{.sims_per_attempt = 2}),
               std::invalid_argument);
  EXPECT_THROW(Refiner(s1_context(), RefineConfig{.max_alternatives = 0}),
               std::invalid_argument);
}


// ---- EvalKey golden values -------------------------------------------------
// The key digest is the content address of every stored evaluation AND the
// sizing RNG seed, so it must stay bit-stable across refactors: a silent
// change would orphan every persistent store file and break the
// remote-vs-in-process byte-identity contract of intooa::svc. These pins
// cover representative (spec, behavioral model, AC options, sizing
// protocol, topology) tuples; if one fails, either restore the canonical
// serialization or bump the store/protocol versions and document the
// migration.

TEST(EvalKey, GoldenDigestsAreBitStable) {
  // Paper-default protocol, S-1, the classic NMC topology.
  {
    const core::EvalKeyContext keys(sizing::EvalContext(circuit::spec_by_name("S-1")),
                                    sizing::SizingConfig{});
    EXPECT_EQ(keys.key_for(circuit::named_topology("NMC")).digest,
              0xf9dafad698e30916ULL);
  }
  // Quick protocol (5 init + 15 iterations), S-3, topology index 42.
  {
    sizing::SizingConfig cfg;
    cfg.init_points = 5;
    cfg.iterations = 15;
    const core::EvalKeyContext keys(sizing::EvalContext(circuit::spec_by_name("S-3")),
                                    cfg);
    EXPECT_EQ(keys.key_for(circuit::Topology::from_index(42)).digest,
              0xd2b4fa8722ae632aULL);
  }
  // Custom behavioral model (slower stages) and coarser AC sweep, S-5.
  {
    circuit::BehavioralConfig behav;
    behav.stage_ft_hz = 90e6;
    sim::AcOptions ac;
    ac.points_per_decade = 8;
    const core::EvalKeyContext keys(
        sizing::EvalContext(circuit::spec_by_name("S-5"), behav, ac),
        sizing::SizingConfig{});
    EXPECT_EQ(keys.key_for(circuit::Topology::from_index(0)).digest,
              0xb6b5f669b3cda582ULL);
  }
  // S-2 with the C1 library topology.
  {
    const core::EvalKeyContext keys(sizing::EvalContext(circuit::spec_by_name("S-2")),
                                    sizing::SizingConfig{});
    EXPECT_EQ(keys.key_for(circuit::named_topology("C1")).digest,
              0x0a29cd1cdf75c637ULL);
  }
}

TEST(EvalKey, DigestSeparatesEveryKeyComponent) {
  const auto digest_of = [](const std::string& spec,
                            const sizing::SizingConfig& cfg,
                            std::size_t topology_index) {
    const core::EvalKeyContext keys(
        sizing::EvalContext(circuit::spec_by_name(spec)), cfg);
    return keys.key_for(circuit::Topology::from_index(topology_index)).digest;
  };
  const std::uint64_t base = digest_of("S-1", {}, 7);
  EXPECT_NE(base, digest_of("S-2", {}, 7));  // spec matters
  sizing::SizingConfig other;
  other.iterations = 31;
  EXPECT_NE(base, digest_of("S-1", other, 7));  // protocol matters
  EXPECT_NE(base, digest_of("S-1", {}, 8));     // topology matters
  EXPECT_EQ(base, digest_of("S-1", {}, 7));     // and it is deterministic
}

}  // namespace
