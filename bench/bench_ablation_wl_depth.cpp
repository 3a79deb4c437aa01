// Ablation (DESIGN.md): WL iteration depth h. The paper fixes h by
// maximum-likelihood estimation inside the WL-GP; this bench compares
// fixed depths h = 0..3 against the MLE-selected depth on one spec —
// quantifying how much the neighborhood-aggregation features (h >= 1)
// matter beyond bag-of-subcircuits counting (h = 0).
//
// Options: --spec S-1 (default) --runs N (default 3) --iters N --seed S
//          --store FILE (persistent cross-campaign evaluation store)

#include <cstdio>

#include "campaign/campaign.hpp"
#include "campaign/drain.hpp"
#include "core/optimizer.hpp"
#include "obs/telemetry.hpp"
#include "svc/remote_backend.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec"});
  install_drain_handler();
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const std::string spec_name = cli.get("spec", "S-1");
  const auto runs = static_cast<std::size_t>(cli.get_int("runs", 3));
  const auto iters = static_cast<std::size_t>(cli.get_int("iters", 30));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  const circuit::Spec& spec = circuit::spec_by_name(spec_name);
  const auto eval_store = open_store_from_cli(cli);
  const auto eval_pool = open_pool_from_cli(cli);
  sizing::SizingConfig sizing_config;

  std::printf("ABLATION: WL kernel depth h (spec %s, %zu runs x %zu iterations)\n\n",
              spec_name.c_str(), runs, iters);
  util::Table table({"h", "Suc. Rate", "Final FoM", "chosen h (objective GP)"});

  struct Variant {
    std::string label;
    bool fit_h;
    int fixed_h;
  };
  const Variant variants[] = {
      {"0 (bag of subcircuits)", false, 0}, {"1", false, 1}, {"2", false, 2},
      {"3", false, 3},                      {"MLE (paper)", true, 0},
  };

  for (const auto& variant : variants) {
    int successes = 0;
    std::vector<double> foms;
    std::string chosen = "-";
    for (std::size_t r = 0; r < runs; ++r) {
      exit_if_draining();
      core::TopologyEvaluator evaluator(sizing::EvalContext(spec),
                                        sizing_config);
      store::attach(evaluator, eval_store);
      if (eval_pool) svc::attach(evaluator, eval_pool);
      core::OptimizerConfig config;
      config.iterations = iters;
      config.wlgp.fit_h = variant.fit_h;
      config.wlgp.fixed_h = variant.fixed_h;
      core::IntoOaOptimizer optimizer(config);
      util::Rng rng(seed + 31 * r + static_cast<std::uint64_t>(variant.fixed_h));
      const auto outcome = optimizer.run(evaluator, rng);
      if (outcome.success) {
        ++successes;
        foms.push_back(outcome.best_point.fom);
      }
      chosen = std::to_string(optimizer.objective_model().chosen_h());
    }
    table.add_row({variant.label,
                   util::fmt_rate(successes, static_cast<int>(runs)),
                   foms.empty() ? "-" : util::fmt_fixed(util::mean(foms), 2),
                   chosen});
  }
  std::printf("%s", table.to_ascii().c_str());
  return 0;
}
