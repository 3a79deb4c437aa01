// Tests for the observability subsystem (src/obs): JSON model round trips,
// exact concurrent counter/histogram accounting under the thread pool,
// balanced Chrome-trace span nesting (parsed back from the emitted file),
// metrics snapshot <-> JSON round trip, the disabled-path overhead contract,
// and the determinism guarantee that tracing does not perturb campaign
// results for any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Json

TEST(Json, BuildAndDump) {
  obs::Json doc = obs::Json::object();
  doc["name"] = obs::Json("gp.fit");
  doc["count"] = obs::Json(42);
  doc["ok"] = obs::Json(true);
  doc["none"] = obs::Json(nullptr);
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(1.5));
  arr.push_back(obs::Json("two"));
  doc["items"] = arr;

  const std::string text = doc.dump();
  const obs::Json back = obs::Json::parse(text);
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.at("count").as_number(), 42.0);
  EXPECT_EQ(back.at("items").items().size(), 2u);
  EXPECT_TRUE(back.at("none").is_null());
}

TEST(Json, ParseEscapesAndNumbers) {
  const obs::Json j =
      obs::Json::parse(R"({"s":"a\"b\\c\n\tA","n":-1.25e2,"z":0})");
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\n\tA");
  EXPECT_DOUBLE_EQ(j.at("n").as_number(), -125.0);
  EXPECT_DOUBLE_EQ(j.at("z").as_number(), 0.0);
  // Round trip through dump preserves the escapes.
  EXPECT_EQ(obs::Json::parse(j.dump()), j);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
}

TEST(Json, PrettyDumpParsesBack) {
  obs::Json doc = obs::Json::object();
  doc["a"] = obs::Json(1);
  obs::Json nested = obs::Json::object();
  nested["b"] = obs::Json::array();
  doc["n"] = nested;
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(obs::Json::parse(pretty), doc);
}

// Exhaustive single-byte fuzz of the string escaper: for every byte value,
// dump() must produce output our own parser accepts. ASCII bytes must
// round-trip exactly; bytes >= 0x80 are not valid single-byte UTF-8 and
// must come back as U+FFFD instead of leaking raw bytes into the output
// (which used to produce invalid JSON).
TEST(Json, EscapingIsValidForAll256SingleByteStrings) {
  const std::string replacement = "\xEF\xBF\xBD";
  for (int byte = 0; byte < 256; ++byte) {
    const std::string input(1, static_cast<char>(byte));
    const std::string text = obs::Json(input).dump();
    obs::Json back;
    ASSERT_NO_THROW(back = obs::Json::parse(text)) << "byte " << byte;
    if (byte < 0x80) {
      EXPECT_EQ(back.as_string(), input) << "byte " << byte;
    } else {
      EXPECT_EQ(back.as_string(), replacement) << "byte " << byte;
    }
  }
}

TEST(Json, EscapingPassesValidUtf8AndReplacesMalformed) {
  // Well-formed 2-, 3- and 4-byte sequences survive verbatim.
  const std::string valid = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x99\x82";
  EXPECT_EQ(obs::Json::parse(obs::Json(valid).dump()).as_string(), valid);
  // Overlong encoding of '/', a bare continuation byte, a UTF-16 surrogate
  // and a truncated lead are each replaced with U+FFFD per bad byte run.
  const std::string replacement = "\xEF\xBF\xBD";
  for (const std::string& bad :
       {std::string("\xC0\xAF"), std::string("\x80"),
        std::string("\xED\xA0\x80"), std::string("\xF0\x9F")}) {
    const std::string out = obs::Json::parse(obs::Json(bad).dump()).as_string();
    // Nothing of the malformed input survives: the output is nothing but
    // whole replacement characters (one per rejected byte).
    ASSERT_EQ(out.size() % replacement.size(), 0u);
    for (std::size_t i = 0; i < out.size(); i += replacement.size()) {
      EXPECT_EQ(out.substr(i, replacement.size()), replacement);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, ConcurrentCounterSumsExactly) {
  obs::set_enabled(true);
  obs::Counter& counter = obs::registry().counter("test.obs.counter");
  counter.reset();
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  {
    runtime::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.submit([&counter] {
        for (int i = 0; i < kAddsPerTask; ++i) counter.add();
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(Metrics, ConcurrentHistogramSumsExactly) {
  obs::set_enabled(true);
  obs::Histogram& hist = obs::registry().histogram("test.obs.hist");
  hist.reset();
  constexpr int kTasks = 32;
  constexpr int kSamplesPerTask = 500;
  {
    runtime::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.submit([&hist, t] {
        for (int i = 0; i < kSamplesPerTask; ++i) {
          hist.record(static_cast<std::uint64_t>(t + 1));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kTasks) * kSamplesPerTask);
  // Sum of t+1 for t in [0, kTasks), each kSamplesPerTask times.
  const std::uint64_t expected_sum = static_cast<std::uint64_t>(kTasks) *
                                     (kTasks + 1) / 2 * kSamplesPerTask;
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, static_cast<std::uint64_t>(kTasks));
  std::uint64_t bucket_total = 0;
  for (const auto& [bucket, n] : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Metrics, HistogramBucketSemantics) {
  obs::Histogram& hist = obs::registry().histogram("test.obs.buckets");
  hist.reset();
  hist.record(0);     // bucket 0
  hist.record(1);     // bucket 1: [1, 2)
  hist.record(2);     // bucket 2: [2, 4)
  hist.record(3);     // bucket 2
  hist.record(1024);  // bucket 11: [1024, 2048)
  const obs::HistogramSnapshot snap = hist.snapshot();
  std::map<int, std::uint64_t> by_bucket(snap.buckets.begin(),
                                         snap.buckets.end());
  EXPECT_EQ(by_bucket[0], 1u);
  EXPECT_EQ(by_bucket[1], 1u);
  EXPECT_EQ(by_bucket[2], 2u);
  EXPECT_EQ(by_bucket[11], 1u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 1024u);
  EXPECT_DOUBLE_EQ(snap.mean(), (0.0 + 1 + 2 + 3 + 1024) / 5.0);
}

TEST(Metrics, QuantileOfEmptyAndSingleSampleHistograms) {
  obs::set_enabled(true);
  obs::Histogram& hist = obs::registry().histogram("test.obs.quantile_edge");
  hist.reset();
  // Empty histogram: every quantile is 0.
  EXPECT_DOUBLE_EQ(hist.snapshot().quantile(0.5), 0.0);
  // Single sample: every quantile is exactly that sample (the min==max
  // clamp overrides the bucket interpolation).
  hist.record(777);
  const obs::HistogramSnapshot one = hist.snapshot();
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 777.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 777.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 777.0);
}

TEST(Metrics, QuantileExactBoundaries) {
  obs::set_enabled(true);
  obs::Histogram& hist = obs::registry().histogram("test.obs.quantile_bound");
  hist.reset();
  hist.record(1);
  hist.record(64);
  hist.record(4096);
  const obs::HistogramSnapshot snap = hist.snapshot();
  // q <= 0 pins to the exact minimum, q >= 1 to the exact maximum,
  // regardless of bucket geometry.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 4096.0);
  EXPECT_DOUBLE_EQ(snap.quantile(2.0), 4096.0);
  // Interior quantiles are monotone and stay within [min, max].
  double prev = snap.quantile(0.0);
  for (double q = 0.1; q < 1.0; q += 0.1) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 4096.0);
    prev = v;
  }
}

TEST(Metrics, QuantileTracksTrueQuantilesWithinOneBucket) {
  obs::set_enabled(true);
  obs::Histogram& hist = obs::registry().histogram("test.obs.quantile_rand");
  hist.reset();
  util::Rng rng(20260809);
  std::vector<std::uint64_t> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v =
        1 + static_cast<std::uint64_t>(rng.uniform(0.0, 1048576.0));
    samples.push_back(v);
    hist.record(v);
  }
  std::sort(samples.begin(), samples.end());
  const obs::HistogramSnapshot snap = hist.snapshot();
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double rank = q * static_cast<double>(samples.size());
    const std::size_t index = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1.0)));
    const double truth = static_cast<double>(samples[index]);
    const double estimate = snap.quantile(q);
    // The estimate may land anywhere inside the log2 bucket holding the
    // true value, so the error bound is that bucket's width.
    const double hi = std::pow(2.0, std::ceil(std::log2(truth + 0.5)));
    EXPECT_NEAR(estimate, truth, hi / 2.0) << "q=" << q;
  }
}

TEST(Metrics, GaugeSetMaxIsHighWaterMark) {
  obs::Gauge& gauge = obs::registry().gauge("test.obs.gauge");
  gauge.reset();
  gauge.set_max(3.0);
  gauge.set_max(7.0);
  gauge.set_max(5.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  obs::Counter& a = obs::registry().counter("test.obs.stable");
  obs::Counter& b = obs::registry().counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h =
      obs::registry().histogram("test.obs.stable_ns", obs::Unit::Nanoseconds);
  // A later lookup without a unit still finds the ns histogram.
  EXPECT_EQ(&obs::registry().histogram("test.obs.stable_ns"), &h);
  EXPECT_EQ(h.unit(), obs::Unit::Nanoseconds);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  obs::registry().counter("test.obs.rt_counter").reset();
  obs::registry().counter("test.obs.rt_counter").add(123);
  obs::registry().gauge("test.obs.rt_gauge").set(4.5);
  obs::Histogram& hist =
      obs::registry().histogram("test.obs.rt_hist", obs::Unit::Nanoseconds);
  hist.reset();
  hist.record(10);
  hist.record(2000);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  ASSERT_TRUE(snap.counters.count("test.obs.rt_counter"));
  EXPECT_EQ(snap.counters.at("test.obs.rt_counter"), 123u);
  ASSERT_TRUE(snap.histograms.count("test.obs.rt_hist"));
  EXPECT_EQ(snap.histograms.at("test.obs.rt_hist").unit, "ns");

  const obs::MetricsSnapshot back =
      obs::MetricsSnapshot::from_json(snap.to_json());
  EXPECT_EQ(back, snap);

  // The full report document (with derived stats on top) parses back too.
  const obs::Json report = obs::metrics_report_json(snap, 1.5);
  EXPECT_DOUBLE_EQ(report.at("elapsed_seconds").as_number(), 1.5);
  EXPECT_TRUE(report.contains("derived"));
  EXPECT_EQ(obs::MetricsSnapshot::from_json(report), snap);
}

TEST(Metrics, DerivedCacheHitRate) {
  obs::registry().counter("evaluator.cache_hit").reset();
  obs::registry().counter("evaluator.cache_miss").reset();
  obs::registry().counter("evaluator.cache_hit").add(3);
  obs::registry().counter("evaluator.cache_miss").add(1);
  const obs::DerivedStats stats =
      obs::derive_stats(obs::registry().snapshot(), 2.0);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.75);
  EXPECT_DOUBLE_EQ(stats.elapsed_seconds, 2.0);
}

TEST(Metrics, DisabledPathIsCheap) {
  obs::set_enabled(false);
  obs::Counter& counter = obs::registry().counter("test.obs.disabled");
  counter.reset();
  constexpr int kOps = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    counter.add();
    INTOOA_SPAN("test.obs.disabled_span");
  }
  const double ns_per_op =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      kOps;
  obs::set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);  // nothing was recorded
  EXPECT_TRUE(
      obs::registry().histogram("test.obs.disabled_span").snapshot().count ==
      0u);
  // Generous bound (sanitizer builds are slow): the disabled path is a
  // relaxed load + branch, three orders of magnitude below this.
  EXPECT_LT(ns_per_op, 1000.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, NameSanitizationAndPrefix) {
  EXPECT_EQ(obs::prometheus_name("svc.request_ns"), "intooa_svc_request_ns");
  EXPECT_EQ(obs::prometheus_name("gp.fit-time"), "intooa_gp_fit_time");
  EXPECT_EQ(obs::prometheus_name("a:b"), "intooa_a:b");
}

TEST(Prometheus, RenderHasHelpTypePairsAndNoDuplicateSeries) {
  obs::MetricsSnapshot snap;
  snap.counters["svc.requests"] = 7;
  snap.counters["svc.connections"] = 3;  // counter...
  snap.gauges["svc.connections"] = 1.0;  // ...and gauge of the same name
  obs::HistogramSnapshot hist;
  hist.unit = "ns";
  hist.count = 2;
  hist.sum = 1030;
  hist.min = 6;
  hist.max = 1024;
  hist.buckets = {{3, 1}, {11, 1}};
  snap.histograms["svc.request_ns"] = hist;
  snap.histograms["svc.empty_ns"] = obs::HistogramSnapshot{};

  const std::string text = obs::render_prometheus(snap);
  // Counters get the _total suffix, which also keeps the counter/gauge
  // name collision above from producing duplicate series.
  EXPECT_NE(text.find("# TYPE intooa_svc_connections_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE intooa_svc_connections gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("intooa_svc_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE intooa_svc_request_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("intooa_svc_request_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("intooa_svc_request_ns_count 2\n"), std::string::npos);
  // An empty histogram still exposes _sum/_count but no quantile samples.
  EXPECT_NE(text.find("intooa_svc_empty_ns_count 0\n"), std::string::npos);
  EXPECT_EQ(text.find("intooa_svc_empty_ns{"), std::string::npos);

  // Structural sweep: every # HELP is followed by a # TYPE for the same
  // series, and no series name is declared twice.
  std::set<std::string> declared;
  std::istringstream lines(text);
  std::string line, pending_help;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      pending_help = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string series = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(series, pending_help) << "TYPE without matching HELP";
      EXPECT_TRUE(declared.insert(series).second)
          << "duplicate series " << series;
    }
  }
  EXPECT_EQ(declared.size(), 5u);
}

// ---------------------------------------------------------------------------
// Spans and traces

TEST(Trace, SpanNestingProducesBalancedTrace) {
  obs::set_enabled(true);
  obs::start_trace();
  {
    INTOOA_SPAN("test.outer");
    {
      INTOOA_SPAN("test.inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  EXPECT_EQ(obs::trace_event_count(), 2u);

  const std::string path = temp_file("intooa_test_trace.json");
  ASSERT_TRUE(obs::write_trace(path));
  const obs::Json trace = obs::Json::parse(slurp(path));
  std::filesystem::remove(path);

  ASSERT_TRUE(trace.contains("traceEvents"));
  const obs::Json* outer = nullptr;
  const obs::Json* inner = nullptr;
  for (const obs::Json& event : trace.at("traceEvents").items()) {
    if (event.at("ph").as_string() != "X") continue;  // skip metadata
    EXPECT_TRUE(event.contains("tid"));
    EXPECT_TRUE(event.contains("ts"));
    EXPECT_TRUE(event.contains("dur"));
    if (event.at("name").as_string() == "test.outer") outer = &event;
    if (event.at("name").as_string() == "test.inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread row; the inner span is contained in the outer one.
  EXPECT_EQ(outer->at("tid").as_number(), inner->at("tid").as_number());
  const double outer_start = outer->at("ts").as_number();
  const double outer_end = outer_start + outer->at("dur").as_number();
  const double inner_start = inner->at("ts").as_number();
  const double inner_end = inner_start + inner->at("dur").as_number();
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);

  // Both spans also fed their duration histograms.
  EXPECT_EQ(obs::registry().histogram("test.outer").snapshot().count, 1u);
  EXPECT_EQ(obs::registry().histogram("test.outer").unit(),
            obs::Unit::Nanoseconds);
}

TEST(Trace, SpanSitesCountExactlyAcrossThreads) {
  obs::set_enabled(true);
  const auto names = [] {
    std::set<std::string> out;
    for (const auto& entry : obs::snapshot().histograms) out.insert(entry.first);
    return out;
  };
  // A site that only ever finishes with telemetry off resolves nothing and
  // creates no histogram.
  obs::set_enabled(false);
  for (int i = 0; i < 3; ++i) {
    INTOOA_SPAN("test.span_site.disabled");
  }
  obs::set_enabled(true);
  const std::set<std::string> before = names();
  EXPECT_EQ(before.count("test.span_site.disabled"), 0u);

  // Four threads race the first finish of one site, then keep hitting it.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 5000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        INTOOA_SPAN("test.span_site.threads");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::MetricsSnapshot snap = obs::snapshot();
  const auto it = snap.histograms.find("test.span_site.threads");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count,
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(it->second.unit, "ns");
  // The snapshot gained exactly the one name, as an uncached lookup per
  // finish would have created.
  std::set<std::string> expected = before;
  expected.insert("test.span_site.threads");
  EXPECT_EQ(names(), expected);

  // The cache survives a registry reset: the next finish lands in the same
  // (zeroed) histogram.
  obs::registry().reset();
  for (int i = 0; i < 7; ++i) {
    INTOOA_SPAN("test.span_site.threads");
  }
  EXPECT_EQ(obs::registry().histogram("test.span_site.threads").snapshot().count,
            7u);
}

TEST(Trace, CapacityBoundDropsAndCounts) {
  obs::set_enabled(true);
  obs::start_trace(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    INTOOA_SPAN("test.capped");
  }
  EXPECT_EQ(obs::trace_event_count(), 4u);
  EXPECT_EQ(obs::trace_dropped_count(), 6u);

  const std::string path = temp_file("intooa_test_trace_capped.json");
  ASSERT_TRUE(obs::write_trace(path));
  const obs::Json trace = obs::Json::parse(slurp(path));
  std::filesystem::remove(path);
  ASSERT_TRUE(trace.contains("otherData"));
  EXPECT_DOUBLE_EQ(trace.at("otherData").at("dropped_events").as_number(),
                   6.0);
}

TEST(Trace, DisabledTraceBuffersNothing) {
  obs::stop_trace();
  const std::size_t before = obs::trace_event_count();
  {
    INTOOA_SPAN("test.untraced");
  }
  EXPECT_EQ(obs::trace_event_count(), before);
}

// ---------------------------------------------------------------------------
// Structured logging

TEST(Log, ParseLogLevel) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(util::parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(util::parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(util::parse_log_level("off"), LogLevel::Off);
  EXPECT_FALSE(util::parse_log_level("verbose").has_value());
}

TEST(Log, ThreadOrdinalsAreDistinct) {
  const int self = util::thread_ordinal();
  EXPECT_EQ(self, util::thread_ordinal());  // stable within a thread
  std::atomic<int> worker_ordinal{-1};
  {
    runtime::ThreadPool pool(1);
    pool.submit([&worker_ordinal] {
        worker_ordinal = util::thread_ordinal();
      }).get();
  }
  EXPECT_GE(worker_ordinal.load(), 0);
  EXPECT_NE(worker_ordinal.load(), self);
}

TEST(Log, StructuredFieldsCompile) {
  // Field rendering goes to stderr; this exercises the API surface only.
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::Off);
  util::log_info("structured", {{"runs", 3}, {"rate", 0.5},
                                {"name", "fig5"}, {"ok", true}});
  util::log_warn("plain message");
  util::set_log_level(saved);
}

// ---------------------------------------------------------------------------
// Telemetry wiring

TEST(Telemetry, FromCliParsesFlags) {
  const util::LogLevel saved = util::log_level();
  const char* argv[] = {"bench", "--trace", "t.json", "--metrics", "m.json",
                        "--log-level", "error"};
  const util::Cli cli(7, argv);
  const obs::TelemetryOptions options =
      obs::TelemetryOptions::from_cli(cli, util::LogLevel::Info);
  EXPECT_EQ(options.trace_path, "t.json");
  EXPECT_EQ(options.metrics_path, "m.json");
  EXPECT_EQ(util::log_level(), util::LogLevel::Error);

  const char* argv2[] = {"bench"};
  const util::Cli cli2(1, argv2);
  obs::TelemetryOptions::from_cli(cli2, util::LogLevel::Info);
  EXPECT_EQ(util::log_level(), util::LogLevel::Info);  // default applied

  const char* argv3[] = {"bench", "--log-level", "loud"};
  const util::Cli cli3(3, argv3);
  EXPECT_THROW(obs::TelemetryOptions::from_cli(cli3, util::LogLevel::Info),
               std::invalid_argument);
  util::set_log_level(saved);
}

TEST(Telemetry, FinalizeWritesTraceAndMetrics) {
  const util::LogLevel saved = util::log_level();
  obs::TelemetryOptions options;
  options.trace_path = temp_file("intooa_test_telemetry_trace.json");
  options.metrics_path = temp_file("intooa_test_telemetry_metrics.json");
  {
    obs::BenchTelemetry telemetry(options);
    {
      INTOOA_SPAN("test.telemetry_span");
    }
    telemetry.finalize();
    EXPECT_GE(telemetry.elapsed_seconds(), 0.0);
  }
  const obs::Json trace = obs::Json::parse(slurp(options.trace_path));
  EXPECT_TRUE(trace.contains("traceEvents"));
  const obs::Json metrics = obs::Json::parse(slurp(options.metrics_path));
  EXPECT_TRUE(metrics.contains("histograms"));
  EXPECT_TRUE(
      metrics.at("histograms").contains("test.telemetry_span"));
  std::filesystem::remove(options.trace_path);
  std::filesystem::remove(options.metrics_path);
  util::set_log_level(saved);
}

TEST(Telemetry, FinalizeRecordsProcessUsage) {
  const util::LogLevel saved = util::log_level();
  obs::TelemetryOptions options;
  options.metrics_path = temp_file("intooa_test_process_usage_metrics.json");
  {
    obs::BenchTelemetry telemetry(options);
    telemetry.finalize();
  }
  const obs::Json metrics = obs::Json::parse(slurp(options.metrics_path));
  const obs::Json& gauges = metrics.at("gauges");
  ASSERT_TRUE(gauges.contains("process.rss_peak_mb"));
  ASSERT_TRUE(gauges.contains("process.cpu_seconds"));
  EXPECT_GT(gauges.at("process.rss_peak_mb").as_number(), 0.0);
  EXPECT_GT(gauges.at("process.cpu_seconds").as_number(), 0.0);
  std::filesystem::remove(options.metrics_path);
  util::set_log_level(saved);
}

TEST(Telemetry, FinalizeActiveFlushesSidecarsWithoutUnwinding) {
  const util::LogLevel saved = util::log_level();
  obs::TelemetryOptions options;
  options.trace_path = temp_file("intooa_test_finalize_active_trace.json");
  options.metrics_path =
      temp_file("intooa_test_finalize_active_metrics.json");
  std::filesystem::remove(options.trace_path);
  std::filesystem::remove(options.metrics_path);
  {
    obs::BenchTelemetry telemetry(options);
    {
      INTOOA_SPAN("test.finalize_active_span");
    }
    // The drain/signal exit path: flush without reaching the destructor.
    obs::finalize_active_telemetry();
    EXPECT_TRUE(std::filesystem::exists(options.trace_path));
    EXPECT_TRUE(std::filesystem::exists(options.metrics_path));
    const obs::Json metrics = obs::Json::parse(slurp(options.metrics_path));
    EXPECT_TRUE(metrics.at("histograms")
                    .contains("test.finalize_active_span"));
    obs::finalize_active_telemetry();  // idempotent with a live session
  }
  obs::finalize_active_telemetry();  // and with no session at all
  std::filesystem::remove(options.trace_path);
  std::filesystem::remove(options.metrics_path);
  util::set_log_level(saved);
}

TEST(Telemetry, RenderReportMentionsPhases) {
  obs::registry().histogram("test.phase_a", obs::Unit::Nanoseconds)
      .record(5'000'000);
  obs::registry().counter("test.report_counter").add(7);
  const std::string report =
      obs::render_report(obs::registry().snapshot(), 1.0);
  EXPECT_NE(report.find("test.phase_a"), std::string::npos);
  EXPECT_NE(report.find("test.report_counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: telemetry must not perturb campaign results

void expect_sets_identical(const campaign::CampaignSet& a,
                           const campaign::CampaignSet& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].success, b.runs[r].success);
    EXPECT_EQ(a.runs[r].final_fom, b.runs[r].final_fom);  // exact
    EXPECT_EQ(a.runs[r].best_topology_index, b.runs[r].best_topology_index);
    EXPECT_EQ(a.runs[r].best_values, b.runs[r].best_values);
    EXPECT_EQ(a.runs[r].curve, b.runs[r].curve);  // exact, element-wise
  }
}

TEST(Determinism, TracingDoesNotChangeCampaignResults) {
  campaign::CampaignParams params;
  params.runs = 2;
  params.init_topologies = 2;
  params.iterations = 2;
  params.pool = 10;
  params.sizing_init = 2;
  params.sizing_iterations = 2;
  params.seed = 77;

  runtime::set_thread_count(1);
  const campaign::CampaignSet plain =
      campaign::run_or_load("S-1", campaign::Method::IntoOa, params, "");

  // Same campaign with tracing on and 2 worker threads: results must be
  // identical element-for-element (the instrumentation touches no RNG).
  obs::start_trace();
  runtime::set_thread_count(2);
  const campaign::CampaignSet traced =
      campaign::run_or_load("S-1", campaign::Method::IntoOa, params, "");
  runtime::set_thread_count(1);
  const std::string path = temp_file("intooa_test_campaign_trace.json");
  ASSERT_TRUE(obs::write_trace(path));

  expect_sets_identical(plain, traced);

  // The trace covers the instrumented phases of an actual campaign.
  const std::string text = slurp(path);
  std::filesystem::remove(path);
  const obs::Json trace = obs::Json::parse(text);  // well-formed
  EXPECT_GT(trace.at("traceEvents").size(), 0u);
  EXPECT_NE(text.find("sizing.evaluate"), std::string::npos);
  EXPECT_NE(text.find("sim.mna_solve"), std::string::npos);
  EXPECT_NE(text.find("campaign.run"), std::string::npos);

  // The metrics registry saw the evaluator cache and the GP.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_TRUE(snap.counters.count("evaluator.cache_miss"));
  EXPECT_TRUE(snap.histograms.count("gp.fit"));
  EXPECT_TRUE(snap.histograms.count("wl.featurize"));
}

}  // namespace
