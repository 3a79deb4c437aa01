#include "common/refine_flow.hpp"

#include "circuit/library.hpp"
#include "core/optimizer.hpp"
#include "svc/remote_backend.hpp"
#include "util/log.hpp"

namespace intooa::bench {

RefinementFlow run_refinement_flow(const campaign::CampaignParams& params,
                                   std::shared_ptr<store::EvalStore> store,
                                   std::shared_ptr<svc::ClientPool> remote) {
  const circuit::Spec& spec = circuit::spec_by_name("S-5");
  sizing::EvalContext ctx(spec);
  sizing::SizingConfig sizing_config;
  sizing_config.init_points = params.sizing_init;
  sizing_config.iterations = params.sizing_iterations;

  // Train the per-metric WL-GPs with one INTO-OA campaign (the models the
  // paper reuses from its S-5 optimization).
  util::log_info("refinement flow: training WL-GP models on S-5...");
  core::TopologyEvaluator evaluator(ctx, sizing_config);
  store::attach(evaluator, std::move(store));
  if (remote) svc::attach(evaluator, std::move(remote));
  core::OptimizerConfig opt_config;
  opt_config.init_topologies = params.init_topologies;
  opt_config.iterations = params.iterations;
  opt_config.candidates.pool_size = params.pool;
  core::IntoOaOptimizer optimizer(opt_config);
  util::Rng rng(params.seed ^ 0x5EF1EULL);
  optimizer.run(evaluator, rng);

  core::RefineModels models;
  models.objective = &optimizer.objective_model();
  for (std::size_t i = 0; i < circuit::Spec::kConstraintCount; ++i) {
    models.constraints[i] = &optimizer.constraint_model(i);
  }

  // Trusted sizings of the published topologies (stand-ins for the cited
  // designs' component values).
  util::log_info("refinement flow: sizing trusted designs C1 and C2...");
  const sizing::Sizer sizer(ctx, sizing_config);
  RefinementFlow flow;
  flow.c1_trusted = sizer.size(circuit::named_topology("C1"), rng);
  flow.c2_trusted = sizer.size(circuit::named_topology("C2"), rng);

  // Gradient-guided refinement, 40 simulations per attempt (paper budget).
  core::RefineConfig refine_config;
  refine_config.sims_per_attempt = 40;
  const core::Refiner refiner(ctx, refine_config);
  util::log_info("refinement flow: refining C1...");
  flow.c1 = refiner.refine(circuit::named_topology("C1"),
                           flow.c1_trusted.best_values, models, rng);
  util::log_info("refinement flow: refining C2...");
  flow.c2 = refiner.refine(circuit::named_topology("C2"),
                           flow.c2_trusted.best_values, models, rng);
  return flow;
}

}  // namespace intooa::bench
