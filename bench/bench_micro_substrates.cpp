// google-benchmark microbenchmarks of the computational substrates: WL
// feature extraction (one warm graph, and a fresh dictionary over a run's
// worth of topologies) and kernel evaluation, WL-GP fitting (the O(N^3) GP
// cost the paper argues dominates the WL kernel cost), complex MNA AC
// analysis (one point and one whole sweep), pole extraction, one sizing
// acquisition step over a 256-candidate pool, one full sized-circuit
// evaluation (the "simulation" unit of every experiment), the VGAE-BO autoencoder's Adam
// step and training step, and the persistent evaluation store (append with
// per-record fsync, and indexed lookup).
//
// Options: --store FILE (path for the store microbenchmarks; default
//          bench-store-micro.bin in the working directory, removed after)

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/nn.hpp"
#include "baselines/vae.hpp"
#include "baselines/vgae_bo.hpp"
#include "circuit/behavioral.hpp"
#include "circuit/circuit_graph.hpp"
#include "circuit/library.hpp"
#include "gp/acquisition.hpp"
#include "gp/fit_cache.hpp"
#include "gp/joint_gp.hpp"
#include "gp/wlgp.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"
#include "sim/mna.hpp"
#include "sizing/evaluate.hpp"
#include "store/store.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

std::vector<circuit::Topology> random_topologies(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<circuit::Topology> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(circuit::Topology::random(rng));
  }
  return out;
}

void BM_WlFeatures(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  graph::WlFeaturizer featurizer(6);
  const auto g =
      circuit::build_circuit_graph(random_topologies(1, 1).front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.features(g, h));
  }
}
BENCHMARK(BM_WlFeatures)->Arg(0)->Arg(2)->Arg(6);

// What a campaign pays: a fresh featurizer meets one INTO-OA run's worth of
// topologies (~2,030) at h = 6, so most deep labels are new and get
// interned. BM_WlFeatures's single warm graph interns nothing. `per_graph`
// is the time per featurized graph.
void BM_WlFeaturesFresh(benchmark::State& state) {
  std::vector<graph::Graph> graphs;
  for (const auto& topo : random_topologies(2030, 4)) {
    graphs.push_back(circuit::build_circuit_graph(topo));
  }
  for (auto _ : state) {
    graph::WlFeaturizer featurizer(6);
    for (const auto& g : graphs) {
      benchmark::DoNotOptimize(featurizer.features(g, 6));
    }
  }
  state.counters["per_graph"] = benchmark::Counter(
      static_cast<double>(state.iterations() * graphs.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WlFeaturesFresh)->Unit(benchmark::kMillisecond);

void BM_WlKernelGram(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::WlFeaturizer featurizer(6);
  std::vector<graph::SparseVec> features;
  for (const auto& topo : random_topologies(n, 2)) {
    features.push_back(
        featurizer.features(circuit::build_circuit_graph(topo), 2));
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        acc += graph::dot(features[i], features[j]);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_WlKernelGram)->Arg(20)->Arg(60);

void BM_WlGpFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto featurizer = std::make_shared<graph::WlFeaturizer>(6);
  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  util::Rng rng(3);
  for (const auto& topo : random_topologies(n, 3)) {
    graphs.push_back(circuit::build_circuit_graph(topo));
    targets.push_back(rng.normal());
  }
  for (auto _ : state) {
    gp::WlGp model(featurizer, gp::WlGpConfig{});
    model.fit(graphs, targets);
    benchmark::DoNotOptimize(model.chosen_h());
  }
}
BENCHMARK(BM_WlGpFit)->Arg(20)->Arg(60);

constexpr std::size_t kMetricModels = 5;  // objective + 4 constraint margins

std::vector<std::vector<double>> random_targets(std::size_t n,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> targets(kMetricModels,
                                           std::vector<double>(n));
  for (auto& column : targets) {
    for (auto& y : column) y = rng.normal();
  }
  return targets;
}

// The pre-cache per-iteration model cost of Algorithm 1: every metric model
// refit from scratch (refeaturize, rebuild per-h Grams, refactorize the
// whole MLE grid).
void BM_WlGpFitModelsFull(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto featurizer = std::make_shared<graph::WlFeaturizer>(6);
  std::vector<graph::Graph> graphs;
  for (const auto& topo : random_topologies(n, 5)) {
    graphs.push_back(circuit::build_circuit_graph(topo));
  }
  const auto targets = random_targets(n, 6);
  for (auto _ : state) {
    for (std::size_t m = 0; m < kMetricModels; ++m) {
      gp::WlGp model(featurizer, gp::WlGpConfig{});
      model.fit(graphs, targets[m]);
      benchmark::DoNotOptimize(model.chosen_h());
    }
  }
}
BENCHMARK(BM_WlGpFitModelsFull)->Unit(benchmark::kMillisecond)->Arg(60)->Arg(100);

// The same six fits through the shared incremental cache in steady state:
// grid factors are already bordered up to size n, so each model only scores
// the shared factors against its own target column.
void BM_WlGpFitModelsShared(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto featurizer = std::make_shared<graph::WlFeaturizer>(6);
  gp::WlFitCache cache(featurizer, 6);
  for (const auto& topo : random_topologies(n, 5)) {
    cache.append(circuit::build_circuit_graph(topo));
  }
  const auto targets = random_targets(n, 6);
  std::vector<gp::WlGp> models;
  for (std::size_t m = 0; m < kMetricModels; ++m) {
    models.emplace_back(featurizer, gp::WlGpConfig{});
  }
  models[0].fit_shared(cache, targets[0]);  // materialize the grid factors
  for (auto _ : state) {
    for (std::size_t m = 0; m < kMetricModels; ++m) {
      models[m].fit_shared(cache, targets[m]);
      benchmark::DoNotOptimize(models[m].chosen_h());
    }
  }
}
BENCHMARK(BM_WlGpFitModelsShared)
    ->Unit(benchmark::kMillisecond)
    ->Arg(60)
    ->Arg(100);

la::MatrixD random_spd(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::MatrixD b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  la::MatrixD a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc;
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

void BM_CholeskyFactorize(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::MatrixD a = random_spd(n, 7);
  for (auto _ : state) {
    const la::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_CholeskyFactorize)->Arg(60)->Arg(100);

// Extend an (n-1)-order factorization by one bordered row (copy + O(n^2)
// update) — the per-observation cost the fit cache pays instead of the full
// O(n^3) refactorization above.
void BM_CholeskyAppendRow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::MatrixD a = random_spd(n, 7);
  la::MatrixD lead(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) lead(i, j) = a(i, j);
  }
  const la::Cholesky base(lead);
  std::vector<double> row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = a(n - 1, j);
  for (auto _ : state) {
    la::Cholesky chol = base;
    chol.append_row(row);
    benchmark::DoNotOptimize(chol.log_det());
  }
}
BENCHMARK(BM_CholeskyAppendRow)->Arg(60)->Arg(100);

circuit::Netlist nmc_netlist() {
  circuit::BehavioralConfig cfg;
  return circuit::build_behavioral(circuit::named_topology("NMC"),
                                   std::vector<double>{1e-4, 1e-4, 1e-3, 2e-12},
                                   cfg);
}

void BM_MnaSinglePoint(benchmark::State& state) {
  const auto net = nmc_netlist();
  const sim::AcSolver solver(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(1e6));
  }
}
BENCHMARK(BM_MnaSinglePoint);

void BM_AcSweep(benchmark::State& state) {
  // One run_ac: pole check plus the full log grid (with resonance
  // refinements) solved on one reused LU.
  const auto net = nmc_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_ac(net, "vout"));
  }
}
BENCHMARK(BM_AcSweep)->Unit(benchmark::kMicrosecond);

void BM_PoleExtraction(benchmark::State& state) {
  const auto net = nmc_netlist();
  const sim::AcSolver solver(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.poles());
  }
}
BENCHMARK(BM_PoleExtraction);

void BM_FullSimulation(benchmark::State& state) {
  // One "simulation" in the paper's accounting: stability check + AC
  // sweep + metric extraction for a sized behavioral design.
  sizing::EvalContext ctx(circuit::spec_by_name("S-1"));
  const auto topo = circuit::named_topology("NMC");
  const std::vector<double> values = {1e-4, 1e-4, 1e-3, 2e-12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sizing::evaluate_sized(topo, values, ctx));
  }
}
BENCHMARK(BM_FullSimulation);

void BM_JointGpAcquire(benchmark::State& state) {
  // One sizing-BO acquisition step: wEI over a 256-candidate pool on a
  // joint GP fitted to N points (objective + 4 constraint margins).
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kCandidates = 256;
  util::Rng rng(21);
  std::vector<std::vector<double>> xs(n, std::vector<double>(kDim));
  std::vector<std::vector<double>> ys(n, std::vector<double>(5));
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : xs[i]) v = rng.uniform();
    for (std::size_t k = 0; k < 5; ++k) {
      ys[i][k] = std::sin(3.0 * xs[i][k]) + 0.1 * rng.normal();
    }
  }
  gp::JointGp model;
  model.fit(xs, ys, true);
  la::MatrixD pool(kCandidates, kDim);
  for (std::size_t c = 0; c < kCandidates; ++c) {
    for (auto& v : pool.row(c)) v = rng.uniform();
  }
  for (auto _ : state) {
    const auto scores =
        gp::weighted_ei_pool(model.predict_pool(pool), 0.5, true);
    benchmark::DoNotOptimize(gp::select_best_candidate(scores, rng));
  }
}
BENCHMARK(BM_JointGpAcquire)->Unit(benchmark::kMicrosecond)->Arg(20)->Arg(40);

void BM_TopologyIndexRoundTrip(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) {
    const auto t = circuit::Topology::random(rng);
    benchmark::DoNotOptimize(circuit::Topology::from_index(t.index()));
  }
}
BENCHMARK(BM_TopologyIndexRoundTrip);

// ---- VGAE-BO autoencoder --------------------------------------------------

// One Adam step over 7,613 parameters, the campaign VAE's count. Arg 0,
// fresh: every gradient is dense. Arg 1, settled: 24% of the elements (the
// campaign's share of dead ReLU units and inactive one-hot inputs) first
// see 8,000 zero-gradient steps, so their first moments sit at the
// subnormal fixed point, as they do for most of the campaign's 90,000
// training steps. A fresh start never reaches that state.
void BM_AdamStep(benchmark::State& state) {
  const bool settled = state.range(0) != 0;
  const std::size_t n = 7613;
  util::Rng rng(5);
  std::vector<double> params(n), grads(n);
  for (std::size_t i = 0; i < n; ++i) {
    params[i] = rng.uniform(-0.1, 0.1);
    grads[i] = rng.normal() * 1e-2;
  }
  baselines::Adam adam(3e-3);
  if (settled) {
    for (int t = 0; t < 100; ++t) adam.step({{params, grads}});
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 25 < 6) grads[i] = 0.0;
    }
    for (int t = 0; t < 8000; ++t) adam.step({{params, grads}});
  }
  for (auto _ : state) {
    adam.step({{params, grads}});
    benchmark::DoNotOptimize(params.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamStep)->ArgName("settled")->Arg(0)->Arg(1);

// One VAE training step (forward, backward, Adam) at the campaign's
// VaeConfig; items are steps. Timed after 45,000 steps, halfway through the
// campaign's training: dead units accumulate over the whole run (about 1,100
// moments sit at the subnormal fixed point by then, almost none after 9,000
// steps), so an early window would miss what the campaign pays for.
void BM_VaeTrainStep(benchmark::State& state) {
  baselines::VaeConfig config = baselines::VgaeBoConfig{}.vae;
  config.epochs = 1;
  config.train_samples = 1000;
  util::Rng rng(0xAEDC0DEULL);
  baselines::Vae vae(config, rng);
  for (int i = 0; i < 45; ++i) vae.train(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vae.train(rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.train_samples));
}
BENCHMARK(BM_VaeTrainStep)->Unit(benchmark::kMillisecond)->Iterations(10);

// ---- persistent evaluation store ----------------------------------------

std::string g_store_path = "bench-store-micro.bin";  // set from --store

/// Synthetic (key, record) pair shaped like a real paper-protocol
/// evaluation: 40-point sizing history plus the best design.
core::EvalKey synthetic_key(std::uint64_t i) {
  return {0x5107eULL * 0x100000001b3ULL + i, "micro " + std::to_string(i)};
}

core::EvalRecord synthetic_record(std::uint64_t i) {
  core::EvalRecord record;
  record.topology =
      circuit::Topology::from_index(i % circuit::design_space_size());
  record.sized.topology = record.topology;
  record.sized.simulations = 40;
  record.sized.best_values = {1e-4, 2e-4, 1e-3, 2e-12};
  record.sized.best.perf.valid = true;
  record.sized.best.perf.gain_db = 80.0;
  record.sized.best.perf.gbw_hz = 1e6 + static_cast<double>(i);
  record.sized.best.perf.pm_deg = 60.0;
  record.sized.best.perf.power_w = 1e-4;
  record.sized.best.fom = 400.0;
  record.sized.best.feasible = true;
  record.sized.history.assign(40, record.sized.best);
  return record;
}

// One durable append: encode + CRC + positional write + fsync (the fsync
// dominates; this is the per-fresh-evaluation persistence overhead).
void BM_StoreAppend(benchmark::State& state) {
  std::filesystem::remove(g_store_path);
  auto eval_store = store::EvalStore::open(g_store_path);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval_store->append(synthetic_key(i), synthetic_record(i)));
    ++i;
  }
  eval_store.reset();
  std::filesystem::remove(g_store_path);
}
BENCHMARK(BM_StoreAppend)->Unit(benchmark::kMicrosecond);

// One warm lookup from a store of `range(0)` records: index probe + pread
// + CRC verify + decode (what a warm campaign pays instead of 40
// simulations).
void BM_StoreLookup(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::filesystem::remove(g_store_path);
  auto eval_store = store::EvalStore::open(g_store_path);
  for (std::uint64_t i = 0; i < n; ++i) {
    eval_store->append(synthetic_key(i), synthetic_record(i));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval_store->lookup(synthetic_key(i % n)));
    ++i;
  }
  eval_store.reset();
  std::filesystem::remove(g_store_path);
}
BENCHMARK(BM_StoreLookup)->Arg(100)->Arg(1000);

// ---- observability --------------------------------------------------------

// Cost of one full registry snapshot (merging all 16 per-thread shards of
// every metric) while the other benchmark threads hammer a counter and a
// histogram — the contention profile of StatsRequest against a loaded
// server. Thread 0 snapshots; the rest write.
void BM_ObsSnapshot(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Counter& counter = obs::registry().counter("bench.obs.snap_counter");
  obs::Histogram& hist =
      obs::registry().histogram("bench.obs.snap_ns", obs::Unit::Nanoseconds);
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(obs::snapshot());
    }
  } else {
    std::uint64_t i = 0;
    for (auto _ : state) {
      counter.add(1);
      hist.record(i++ & 0xFFFF);
    }
  }
}
BENCHMARK(BM_ObsSnapshot)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the shared telemetry flags (--trace,
// --metrics, --log-level) work here too. The "benchmark_*" wildcard lets
// google-benchmark's --benchmark_* passthrough flags coexist with ours
// (benchmark::Initialize leaves unknown flags in place), while anything
// else still fails loudly.
int main(int argc, char** argv) {
  const intooa::util::Cli cli(argc, argv);
  // --remote/--remote-inflight are accepted for command-line uniformity
  // with the campaign benches (sweep scripts pass one flag set to every
  // bench); the substrate benches never evaluate topologies, so they are
  // ignored here.
  cli.reject_unknown({"store", "remote", "remote-inflight", "trace",
                      "metrics", "log-level", "benchmark_*"});
  intooa::obs::BenchTelemetry telemetry(intooa::obs::TelemetryOptions::from_cli(
      cli, intooa::util::LogLevel::Warn));
  g_store_path = cli.get("store", g_store_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
