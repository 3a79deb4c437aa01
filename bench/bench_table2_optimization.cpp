// Regenerates Table II: behavior-level op-amp optimization results —
// success rate, mean final FoM of successful runs, mean number of
// simulations to reach the per-spec reference FoM (the dashed lines of
// Fig. 5), and the simulation speedup relative to the slowest method.
//
// Options: --quick | --runs N --iters N --init N --pool N --seed S
//          --cache-dir DIR | --no-cache   --spec S-3 (restrict to one spec)
//          --store FILE (persistent cross-campaign evaluation store)
//          --threads N (default: hardware concurrency; results are
//          byte-identical for any value, 1 = fully serial)

#include <algorithm>
#include <cstdio>

#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec"});
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);
  const std::string only_spec = cli.get("spec", "");

  std::printf(
      "TABLE II: Behavior-level Op-amp Optimization Results (%zu runs)\n\n",
      options.params.runs);
  util::Table table(
      {"Specs", "Method", "Suc. Rate", "Final FoM", "# Sim.", "Sim. Speedup"});

  for (const auto& spec : circuit::paper_specs()) {
    if (!only_spec.empty() && spec.name != only_spec) continue;

    std::vector<CampaignSet> sets;
    for (Method method : all_methods()) {
      sets.push_back(
          run_or_load(spec.name, method, options.params, options.cache_dir,
                      options.store, options.remote));
    }

    const double ref = reference_fom(sets);
    std::vector<double> sims;
    for (const auto& set : sets) sims.push_back(set.mean_sims_to_reach(ref));
    const double slowest = *std::max_element(sims.begin(), sims.end());

    for (std::size_t m = 0; m < sets.size(); ++m) {
      const auto& set = sets[m];
      table.add_row({spec.name, method_name(set.method),
                     util::fmt_rate(set.successes(),
                                    static_cast<int>(set.runs.size())),
                     set.successes() ? util::fmt_fixed(set.mean_final_fom(), 2)
                                     : "-",
                     util::fmt_fixed(sims[m], 0),
                     util::fmt_speedup(slowest / std::max(sims[m], 1.0))});
    }
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\n(Final FoM averages successful runs; '# Sim.' counts simulations to\n"
      "reach the per-spec reference FoM, with failures charged the full\n"
      "budget; speedup is relative to the slowest method per spec.)\n");
  return 0;
}
