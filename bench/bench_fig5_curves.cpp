// Regenerates Fig. 5: behavior-level op-amp optimization curves (best
// feasible FoM vs. number of simulations), averaged over the repeated
// runs, for all five methods on all five specification sets. Prints a
// down-sampled view of each series and writes the full-resolution mean
// curves to fig5_<spec>.csv for plotting.
//
// Options: --quick | --runs N --iters N --init N --pool N --seed S
//          --cache-dir DIR | --no-cache   --spec S-3 (restrict to one spec)
//          --store FILE (persistent cross-campaign evaluation store)
//          --threads N (default: hardware concurrency; results are
//          byte-identical for any value, 1 = fully serial)

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

  std::printf("FIG. 5: Behavior-level op-amp optimization curves (mean of %zu runs)\n\n",
              options.params.runs);

  for (const auto& spec : circuit::paper_specs()) {
    if (!only_spec.empty() && spec.name != only_spec) continue;

    std::vector<CampaignSet> sets;
    for (Method method : all_methods()) {
      sets.push_back(
          run_or_load(spec.name, method, options.params, options.cache_dir,
                      options.store, options.remote));
    }

    // Full-resolution CSV for plotting.
    const std::size_t budget = options.params.budget();
    util::Table csv([&] {
      std::vector<std::string> headers = {"sim"};
      for (const auto& set : sets) headers.push_back(method_name(set.method));
      return headers;
    }());
    std::vector<std::vector<double>> curves;
    for (const auto& set : sets) curves.push_back(set.mean_curve());
    for (std::size_t s = 0; s < budget; ++s) {
      std::vector<std::string> row = {std::to_string(s + 1)};
      for (const auto& curve : curves) row.push_back(util::fmt(curve[s], 6));
      csv.add_row(std::move(row));
    }
    const std::string csv_name = "fig5_" + spec.name + ".csv";
    csv.write_csv(csv_name);

    // Down-sampled terminal view (every 10% of the budget).
    std::printf("-- %s (reference FoM %.2f, dashed line) -> %s\n", spec.name.c_str(),
                reference_fom(sets), csv_name.c_str());
    util::Table view([&] {
      std::vector<std::string> headers = {"# Sim"};
      for (const auto& set : sets) headers.push_back(method_name(set.method));
      return headers;
    }());
    for (std::size_t frac = 1; frac <= 10; ++frac) {
      const std::size_t s = frac * budget / 10 - 1;
      std::vector<std::string> row = {std::to_string(s + 1)};
      for (const auto& curve : curves) row.push_back(util::fmt(curve[s], 4));
      view.add_row(std::move(row));
    }
    std::printf("%s\n", view.to_ascii().c_str());
  }
  return 0;
}
