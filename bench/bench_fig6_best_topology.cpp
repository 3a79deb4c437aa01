// Regenerates Fig. 6: the best op-amp found by INTO-OA for S-3 — its
// behavior-level topology (a), and the transistor-level realization (b)
// produced by the gm/Id mapping flow: sized devices, the small-signal
// netlist, and the re-simulated performance.
//
// Options: --quick | --runs N ... --cache-dir DIR | --no-cache
//          --store FILE --spec S-3 (default S-3, any spec accepted)

#include <cstdio>

#include "circuit/behavioral.hpp"
#include "circuit/circuit_graph.hpp"
#include "campaign/campaign.hpp"
#include "sim/metrics.hpp"
#include "sizing/evaluate.hpp"
#include "obs/telemetry.hpp"
#include "util/log.hpp"
#include "xtor/mapping.hpp"

int main(int argc, char** argv) {
  using namespace intooa;
  using namespace intooa::campaign;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli, {"spec"});
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  const BenchOptions options = BenchOptions::from_cli(cli);
  const std::string spec_name = cli.get("spec", "S-3");
  const circuit::Spec& spec = circuit::spec_by_name(spec_name);

  const CampaignSet set =
      run_or_load(spec_name, Method::IntoOa, options.params, options.cache_dir,
                  options.store, options.remote);
  const auto best = set.best_run();
  if (!best) {
    std::printf("No feasible %s design found; rerun with more iterations.\n",
                spec_name.c_str());
    return 1;
  }
  const RunResult& run = set.runs[*best];
  const auto topology = circuit::Topology::from_index(run.best_topology_index);

  std::printf("FIG. 6(a): best behavior-level op-amp for %s found by INTO-OA\n\n",
              spec_name.c_str());
  std::printf("topology: %s\n\n", topology.to_string().c_str());
  std::printf("circuit graph (Sec. III-A representation):\n%s\n",
              circuit::build_circuit_graph(topology).to_string().c_str());

  intooa::sizing::EvalContext ctx{spec};
  const auto net =
      circuit::build_behavioral(topology, run.best_values, ctx.behavioral);
  std::printf("behavior-level netlist:\n%s\n", net.to_spice().c_str());
  std::printf(
      "behavior-level performance: Gain=%.2f dB, GBW=%.2f MHz, PM=%.2f deg, "
      "Power=%.2f uW, FoM=%.2f\n\n",
      run.gain_db, run.gbw_hz / 1e6, run.pm_deg, run.power_w / 1e-6,
      run.final_fom);

  std::printf("FIG. 6(b): transistor-level realization (gm/Id mapping)\n\n");
  const auto design =
      xtor::map_to_transistor(topology, run.best_values, ctx.behavioral);
  std::printf("%s\n", design.to_string().c_str());
  const auto perf = xtor::evaluate_transistor(topology, run.best_values,
                                              ctx.behavioral);
  if (perf.valid) {
    std::printf(
        "transistor-level performance: Gain=%.2f dB, GBW=%.2f MHz, "
        "PM=%.2f deg, Power=%.2f uW, FoM=%.2f\n",
        perf.gain_db, perf.gbw_hz / 1e6, perf.pm_deg, perf.power_w / 1e-6,
        circuit::fom(perf, spec.load_cap));
  } else {
    std::printf("transistor-level evaluation failed: %s\n",
                perf.failure.c_str());
  }
  return 0;
}
