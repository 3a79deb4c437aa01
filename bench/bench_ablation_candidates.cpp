// Ablation (DESIGN.md): sensitivity of INTO-OA to the candidate-generation
// knobs — pool size and expected mutations per child — extending the
// paper's INTO-OA-r / INTO-OA-m comparison (which varies only the
// mutation fraction). Reports success rate, mean final FoM and mean
// simulations-to-success on one spec.
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
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  const circuit::Spec& spec = circuit::spec_by_name(spec_name);
  const auto eval_store = open_store_from_cli(cli);
  const auto eval_pool = open_pool_from_cli(cli);
  sizing::SizingConfig sizing_config;  // paper protocol 10+30

  std::printf(
      "ABLATION: candidate generation (spec %s, %zu runs x %zu iterations)\n\n",
      spec_name.c_str(), runs, iters);
  util::Table table({"pool", "E[mutations]", "mutation frac", "Suc. Rate",
                     "Final FoM", "mean sims to 1st feasible"});

  const std::size_t pools[] = {50, 200};
  const double mutation_counts[] = {0.5, 1.0, 2.0};
  const double fractions[] = {0.5};

  for (std::size_t pool : pools) {
    for (double expected : mutation_counts) {
      for (double fraction : fractions) {
        int successes = 0;
        std::vector<double> foms;
        std::vector<double> sims_to_feasible;
        for (std::size_t r = 0; r < runs; ++r) {
          exit_if_draining();
          core::TopologyEvaluator evaluator(sizing::EvalContext(spec),
                                            sizing_config);
          store::attach(evaluator, eval_store);
          if (eval_pool) svc::attach(evaluator, eval_pool);
          core::OptimizerConfig config;
          config.iterations = iters;
          config.candidates.pool_size = pool;
          config.candidates.mutation_fraction = fraction;
          config.candidates.expected_mutations = expected;
          core::IntoOaOptimizer optimizer(config);
          util::Rng rng(seed + 977 * r + pool + static_cast<std::uint64_t>(10 * expected));
          const auto outcome = optimizer.run(evaluator, rng);
          if (outcome.success) {
            ++successes;
            foms.push_back(outcome.best_point.fom);
          }
          const auto curve = evaluator.fom_curve();
          double first = static_cast<double>(curve.size());
          for (std::size_t i = 0; i < curve.size(); ++i) {
            if (curve[i] > 0.0) {
              first = static_cast<double>(i + 1);
              break;
            }
          }
          sims_to_feasible.push_back(first);
        }
        table.add_row({std::to_string(pool), util::fmt(expected, 2),
                       util::fmt(fraction, 2),
                       util::fmt_rate(successes, static_cast<int>(runs)),
                       foms.empty() ? "-" : util::fmt_fixed(util::mean(foms), 2),
                       util::fmt_fixed(util::mean(sims_to_feasible), 0)});
      }
    }
  }
  std::printf("%s", table.to_ascii().c_str());
  return 0;
}
