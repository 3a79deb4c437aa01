// Tests for the campaign driver the benches run on (src/campaign):
// aggregation math (success rates, mean curves, simulations-to-reference),
// the reference-FoM rule, CLI plumbing, the disk cache round trip, and the
// parallel/checkpoint-resume guarantees (byte-identical results for any
// thread count and across an interrupt).

#include <gtest/gtest.h>

#include <filesystem>

#include "campaign/campaign.hpp"
#include "runtime/executor.hpp"

namespace {

using namespace intooa;
using namespace intooa::campaign;

CampaignParams tiny_params() {
  CampaignParams params;
  params.runs = 2;
  params.init_topologies = 3;
  params.iterations = 2;
  params.pool = 20;
  params.sizing_init = 2;
  params.sizing_iterations = 2;
  params.seed = 77;
  return params;
}

TEST(Campaign, MethodNamesAndOrder) {
  const auto& methods = all_methods();
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(method_name(methods.front()), "FE-GA");
  EXPECT_EQ(method_name(methods.back()), "INTO-OA");
  EXPECT_EQ(method_name(Method::IntoOaR), "INTO-OA-r");
}

TEST(Campaign, ParamsAccounting) {
  const CampaignParams params = tiny_params();
  EXPECT_EQ(params.sims_per_topology(), 4u);
  EXPECT_EQ(params.budget(), 20u);
  EXPECT_NE(params.cache_token().find("seed77"), std::string::npos);
}

TEST(Campaign, SetAggregation) {
  CampaignSet set;
  set.params = tiny_params();
  RunResult ok;
  ok.success = true;
  ok.final_fom = 100.0;
  ok.curve = {0, 0, 50, 50, 100, 100, 100, 100, 100, 100,
              100, 100, 100, 100, 100, 100, 100, 100, 100, 100};
  RunResult fail;
  fail.success = false;
  fail.curve.assign(20, 0.0);
  set.runs = {ok, fail};

  EXPECT_EQ(set.successes(), 1);
  EXPECT_DOUBLE_EQ(set.mean_final_fom(), 100.0);
  const auto mean = set.mean_curve();
  ASSERT_EQ(mean.size(), 20u);
  EXPECT_DOUBLE_EQ(mean[4], 50.0);  // (100 + 0) / 2
  // ok reaches 50 at simulation 3; fail never does (charged the budget).
  EXPECT_DOUBLE_EQ(set.mean_sims_to_reach(50.0), (3.0 + 20.0) / 2.0);
  ASSERT_TRUE(set.best_run().has_value());
  EXPECT_EQ(*set.best_run(), 0u);
}

TEST(Campaign, ReferenceFomRule) {
  CampaignSet strong;
  strong.params = tiny_params();
  RunResult a;
  a.success = true;
  a.final_fom = 200.0;
  strong.runs = {a};
  CampaignSet weak = strong;
  weak.runs[0].final_fom = 100.0;
  CampaignSet never;
  never.params = tiny_params();
  RunResult f;
  f.success = false;
  never.runs = {f};

  // 90% of the weakest *successful* method.
  EXPECT_DOUBLE_EQ(reference_fom({strong, weak, never}), 90.0);
  EXPECT_DOUBLE_EQ(reference_fom({never}), 0.0);
}

TEST(Campaign, BenchOptionsFromCli) {
  const char* argv[] = {"bench", "--quick", "--runs", "5", "--seed", "9"};
  const util::Cli cli(6, argv);
  const BenchOptions options = BenchOptions::from_cli(cli);
  EXPECT_EQ(options.params.runs, 5u);        // explicit flag beats --quick
  EXPECT_EQ(options.params.iterations, 20u); // from --quick
  EXPECT_EQ(options.params.seed, 9u);
  EXPECT_EQ(options.cache_dir, "bench-cache");

  const char* argv2[] = {"bench", "--no-cache", "--threads", "2"};
  const util::Cli cli2(4, argv2);
  const BenchOptions options2 = BenchOptions::from_cli(cli2);
  EXPECT_TRUE(options2.cache_dir.empty());
  EXPECT_EQ(options2.threads, 2u);
  EXPECT_EQ(runtime::thread_count(), 2u);  // from_cli configures the executor
  runtime::set_thread_count(1);
}

TEST(Campaign, RunAndCacheRoundTrip) {
  const auto cache_dir = std::filesystem::temp_directory_path() /
                         "intooa_campaign_cache_test";
  std::filesystem::remove_all(cache_dir);
  const CampaignParams params = tiny_params();

  const CampaignSet fresh =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  ASSERT_EQ(fresh.runs.size(), params.runs);
  for (const auto& run : fresh.runs) {
    EXPECT_EQ(run.curve.size(), params.budget());
  }

  // Second call must hit the cache and reproduce everything bit-for-bit
  // relevant to the tables.
  const CampaignSet cached =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  ASSERT_EQ(cached.runs.size(), fresh.runs.size());
  for (std::size_t r = 0; r < fresh.runs.size(); ++r) {
    EXPECT_EQ(cached.runs[r].success, fresh.runs[r].success);
    EXPECT_NEAR(cached.runs[r].final_fom, fresh.runs[r].final_fom, 1e-9);
    EXPECT_EQ(cached.runs[r].best_topology_index,
              fresh.runs[r].best_topology_index);
    ASSERT_EQ(cached.runs[r].curve.size(), fresh.runs[r].curve.size());
    for (std::size_t i = 0; i < fresh.runs[r].curve.size(); i += 5) {
      EXPECT_NEAR(cached.runs[r].curve[i], fresh.runs[r].curve[i], 1e-9);
    }
  }
  std::filesystem::remove_all(cache_dir);
}

void expect_sets_identical(const CampaignSet& a, const CampaignSet& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].success, b.runs[r].success);
    EXPECT_EQ(a.runs[r].final_fom, b.runs[r].final_fom);  // exact
    EXPECT_EQ(a.runs[r].best_topology_index, b.runs[r].best_topology_index);
    EXPECT_EQ(a.runs[r].best_topology, b.runs[r].best_topology);
    EXPECT_EQ(a.runs[r].best_values, b.runs[r].best_values);
    EXPECT_EQ(a.runs[r].curve, b.runs[r].curve);  // exact, element-wise
  }
}

TEST(Campaign, ThreadCountDoesNotChangeResults) {
  const CampaignParams params = tiny_params();
  runtime::set_thread_count(1);
  const CampaignSet serial = run_or_load("S-2", Method::IntoOa, params, "");
  runtime::set_thread_count(4);
  const CampaignSet parallel = run_or_load("S-2", Method::IntoOa, params, "");
  runtime::set_thread_count(1);
  expect_sets_identical(serial, parallel);
}

TEST(Campaign, CheckpointInterruptResumeIsExact) {
  const auto cache_dir = std::filesystem::temp_directory_path() /
                         "intooa_campaign_resume_test";
  std::filesystem::remove_all(cache_dir);
  const CampaignParams params = tiny_params();

  const CampaignSet fresh =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());

  // Simulate an interrupt after run 0: the aggregate CSV was never written
  // and run 1's checkpoint is lost, so the resumed campaign must restore
  // run 0 from its checkpoint and re-simulate only run 1.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) std::filesystem::remove(entry.path());
  }
  std::filesystem::remove(cache_dir / "checkpoints" /
                          ("campaign_S-1_INTO-OA-r_" + params.cache_token() +
                           "_run1.ckpt"));

  const CampaignSet resumed =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  expect_sets_identical(fresh, resumed);
  std::filesystem::remove_all(cache_dir);
}

TEST(Campaign, DeterministicPerSeed) {
  const CampaignParams params = tiny_params();
  const CampaignSet a = run_or_load("S-3", Method::IntoOa, params, "");
  const CampaignSet b = run_or_load("S-3", Method::IntoOa, params, "");
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_topology_index, b.runs[r].best_topology_index);
    EXPECT_DOUBLE_EQ(a.runs[r].final_fom, b.runs[r].final_fom);
  }
}

}  // namespace
