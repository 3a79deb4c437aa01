// perfbench-tool: the compiled half of the benchmark in perfbench/. run.py
// builds it next to the repository's daemons and drives these subcommands:
//
//   campaign      the campaign_quick workload in one fresh process
//   vae           times the shared VGAE autoencoder's training
//   evaluate      a key stream through one serving hop (in process, the
//                 ClientPool, or the api::Session)
//   loadgen       the open-loop HTTP generator against intooa-gateway
//   store-replay  times EvalStore::append by replaying stored records
//
// Each prints one JSON line on stdout. See perfbench/README.md.

#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.hpp"

namespace perfbench {
int run_campaign(const intooa::util::Cli& cli);
int run_vae(const intooa::util::Cli& cli);
int run_evaluate(const intooa::util::Cli& cli);
int run_loadgen(const intooa::util::Cli& cli);
int run_store_replay(const intooa::util::Cli& cli);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench-tool campaign|vae|evaluate|loadgen|"
                 "store-replay [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const intooa::util::Cli cli(argc - 1, argv + 1);
    if (command == "campaign") return perfbench::run_campaign(cli);
    if (command == "vae") return perfbench::run_vae(cli);
    if (command == "evaluate") return perfbench::run_evaluate(cli);
    if (command == "loadgen") return perfbench::run_loadgen(cli);
    if (command == "store-replay") return perfbench::run_store_replay(cli);
    std::fprintf(stderr, "perfbench-tool: unknown command %s\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench-tool %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
