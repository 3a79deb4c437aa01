// Regenerates Table I: the five design-specification sets. Also prints the
// derived design-space statistics quoted in Sec. II-C (type counts per
// slot, total space size) as a sanity header for the other benches.
//
// Options: --store FILE (open and report on a persistent evaluation store:
//          record count after tail recovery — a cheap integrity check)

#include <cstdio>

#include "circuit/rules.hpp"
#include "circuit/spec.hpp"
#include "campaign/campaign.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace intooa;

  const util::Cli cli(argc, argv);
  campaign::reject_unknown_flags(cli);
  obs::BenchTelemetry telemetry(
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info));
  if (const auto store = campaign::open_store_from_cli(cli)) {
    std::printf("evaluation store %s: %zu record(s)\n\n",
                store->path().c_str(), store->size());
  }

  std::printf("TABLE I: The Design Specification Sets\n");
  util::Table table(
      {"Specs", "Gain(dB)", "GBW(MHz)", "PM(deg)", "Power(uW)", "CL(pF)"});
  // Appends instead of `">" + util::fmt(...)`, which g++ 12 misreports
  // under -Wrestrict (fatal with INTOOA_WERROR).
  const auto bound = [](const char* op, double value) {
    std::string cell = op;
    cell += util::fmt(value, 3);
    return cell;
  };
  for (const auto& spec : circuit::paper_specs()) {
    table.add_row({spec.name, bound(">", spec.gain_db_min),
                   bound(">", spec.gbw_hz_min / 1e6),
                   bound(">", spec.pm_deg_min),
                   bound("<", spec.power_w_max / 1e-6),
                   util::fmt(spec.load_cap / 1e-12, 5)});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  std::printf("Design space (Sec. II-C):\n");
  for (circuit::Slot slot : circuit::all_slots()) {
    std::printf("  %-8s : %2zu types\n", circuit::slot_name(slot).c_str(),
                circuit::allowed_types(slot).size());
  }
  std::printf("  total    : %zu topologies\n", circuit::design_space_size());
  return 0;
}
