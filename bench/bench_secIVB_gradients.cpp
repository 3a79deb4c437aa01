// Regenerates the Sec. IV-B experiment: identification of critical
// structures via WL-GP gradients, validated against remove-and-resimulate
// sensitivity analysis. An INTO-OA campaign on S-4 trains the per-metric
// WL-GPs; for the best design, each occupied variable subcircuit's
// gradient (for GBW and PM) is compared with the performance change when
// that subcircuit is removed.
//
// Options: --quick | --runs/--iters/... --spec S-4 (default) --seed S
//          --store FILE (persistent cross-campaign evaluation store)

#include <cmath>
#include <cstdio>

#include "circuit/circuit_graph.hpp"
#include "campaign/campaign.hpp"
#include "core/interpret.hpp"
#include "core/optimizer.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "svc/remote_backend.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec"});
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);
  const std::string spec_name = cli.get("spec", "S-4");
  const circuit::Spec& spec = circuit::spec_by_name(spec_name);

  // Train models with one INTO-OA campaign (models are in-memory state, so
  // this bench runs its campaign inline rather than using the disk cache).
  sizing::EvalContext ctx(spec);
  sizing::SizingConfig sizing_config;
  sizing_config.init_points = options.params.sizing_init;
  sizing_config.iterations = options.params.sizing_iterations;
  core::TopologyEvaluator evaluator(ctx, sizing_config);
  store::attach(evaluator, options.store);
  if (options.remote) svc::attach(evaluator, options.remote);
  core::OptimizerConfig opt_config;
  opt_config.init_topologies = options.params.init_topologies;
  opt_config.iterations = options.params.iterations;
  opt_config.candidates.pool_size = options.params.pool;
  core::IntoOaOptimizer optimizer(opt_config);
  util::Rng rng(options.params.seed ^ 0x9B0ULL);
  const auto outcome = optimizer.run(evaluator, rng);
  if (!outcome.best_index) {
    std::printf("campaign produced no design; rerun with more iterations\n");
    return 1;
  }

  const circuit::Topology best = outcome.best_topology;
  std::printf("SEC. IV-B: critical-structure identification for the best %s design\n\n",
              spec_name.c_str());
  std::printf("best topology: %s\n", best.to_string().c_str());
  std::printf("best performance: Gain=%.2f dB, GBW=%.3f MHz, PM=%.2f deg, Power=%.2f uW\n\n",
              outcome.best_point.perf.gain_db,
              outcome.best_point.perf.gbw_hz / 1e6,
              outcome.best_point.perf.pm_deg,
              outcome.best_point.perf.power_w / 1e-6);

  // Constraint-model indices: 1 = GBW margin, 2 = PM margin. Margins are
  // "lower is better", so the gradient w.r.t. the *metric* flips the sign.
  const auto& gbw_model = optimizer.constraint_model(1);
  const auto& pm_model = optimizer.constraint_model(2);

  util::Table table({"subcircuit (slot)", "structure", "grad GBW", "grad PM",
                     "removal dGBW (MHz)", "removal dPM (deg)", "signs agree"});

  const sizing::EvalPoint base_point =
      sizing::evaluate_sized(best, outcome.best_values, ctx);
  const auto base_schema = circuit::make_schema(best, ctx.behavioral);

  for (circuit::Slot slot : circuit::all_slots()) {
    if (best.type(slot) == circuit::SubcktType::None) continue;
    const double g_gbw = -core::slot_gradient(gbw_model, best, slot, 1);
    const double g_pm = -core::slot_gradient(pm_model, best, slot, 1);

    // Sensitivity analysis: remove the structure, keep all other sizes.
    const circuit::Topology removed =
        best.with(slot, circuit::SubcktType::None);
    const auto removed_schema = circuit::make_schema(removed, ctx.behavioral);
    std::vector<double> removed_values;
    removed_values.reserve(removed_schema.size());
    for (const auto& param : removed_schema.params) {
      removed_values.push_back(
          outcome.best_values[base_schema.index_of(param.name)]);
    }
    const sizing::EvalPoint removed_point =
        sizing::evaluate_sized(removed, removed_values, ctx);

    std::string d_gbw = "n/a", d_pm = "n/a", agree = "n/a";
    if (removed_point.perf.valid && base_point.perf.valid) {
      const double delta_gbw =
          (removed_point.perf.gbw_hz - base_point.perf.gbw_hz) / 1e6;
      const double delta_pm = removed_point.perf.pm_deg - base_point.perf.pm_deg;
      d_gbw = util::fmt_fixed(delta_gbw, 2);
      d_pm = util::fmt_fixed(delta_pm, 2);
      // A structure with positive metric gradient helps the metric, so
      // removing it should reduce the metric (opposite signs).
      const bool gbw_ok = delta_gbw * g_gbw <= 0.0;
      const bool pm_ok = delta_pm * g_pm <= 0.0;
      agree = std::string(gbw_ok ? "GBW:yes" : "GBW:no") + " " +
              (pm_ok ? "PM:yes" : "PM:no");
    } else if (!removed_point.perf.valid) {
      agree = "removal breaks amp (" + removed_point.perf.failure + ")";
    }

    const std::string structure =
        circuit::short_name(best.type(slot)) + " (" +
        circuit::slot_name(slot) + ")";
    table.add_row({structure, circuit::graph_label(best.type(slot)),
                   util::fmt(g_gbw, 3), util::fmt(g_pm, 3), d_gbw, d_pm,
                   agree});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  std::printf("Strongest structures for each metric (|gradient|, depth <= 1):\n");
  for (const auto& [name, model] :
       {std::pair<const char*, const gp::WlGp*>{"GBW", &gbw_model},
        std::pair<const char*, const gp::WlGp*>{"PM", &pm_model}}) {
    std::printf("  %s:\n", name);
    for (const auto& s : core::top_structures(*model, 5, 1)) {
      std::printf("    %-28s grad(margin)=%+.4f\n", s.structure.c_str(),
                  s.gradient);
    }
  }
  return 0;
}
