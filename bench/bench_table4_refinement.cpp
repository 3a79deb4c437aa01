// Regenerates Fig. 7 + Table IV: gradient-guided topology refinement of
// the two published three-stage op-amps C1 [19] and C2 [20] against S-5.
// Prints the per-design before/after performance (Table IV) and the
// Fig. 7-style description of each single-slot edit.
//
// Options: --quick | --runs/--iters/... --seed S --store FILE

#include <cstdio>

#include "common/refine_flow.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

using namespace intooa;

std::vector<std::string> perf_row(const std::string& name,
                                  const sizing::EvalPoint& point) {
  return {name,
          util::fmt_fixed(point.perf.gain_db, 2),
          util::fmt_fixed(point.perf.gbw_hz / 1e6, 2),
          util::fmt_fixed(point.perf.pm_deg, 2),
          util::fmt_fixed(point.perf.power_w / 1e-6, 2),
          util::fmt_fixed(point.fom, 0),
          point.feasible ? "yes" : "NO"};
}

void describe(const char* original, const char* refined,
              const core::RefineResult& result) {
  std::printf(
      "FIG. 7 %s -> %s: slot %s, %s replaced by %s (%zu attempt(s), %zu "
      "simulations, success=%s)\n",
      original, refined, circuit::slot_name(result.changed_slot).c_str(),
      circuit::short_name(result.old_type).c_str(),
      circuit::short_name(result.new_type).c_str(), result.attempts.size(),
      result.simulations, result.success ? "yes" : "no");
  std::printf("  critical metric: %s margin\n",
              circuit::Spec::constraint_names()[result.critical_metric].c_str());
  std::printf("  refined topology: %s\n\n", result.refined.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli);
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);

  const bench::RefinementFlow flow = bench::run_refinement_flow(
      options.params, options.store, options.remote);

  std::printf(
      "\nTABLE IV: Behavior-level Op-amp Performance before and after "
      "Topology Refinement (spec S-5)\n\n");
  util::Table table({"Circuit", "Gain(dB)", "GBW(MHz)", "PM(deg)",
                     "Power(uW)", "FoM", "meets S-5"});
  table.add_row(perf_row("C1", flow.c1.original_point));
  table.add_row(perf_row("R1", flow.c1.refined_point));
  table.add_row(perf_row("C2", flow.c2.original_point));
  table.add_row(perf_row("R2", flow.c2.refined_point));
  std::printf("%s\n", table.to_ascii().c_str());

  describe("C1", "R1", flow.c1);
  describe("C2", "R2", flow.c2);
  return 0;
}
