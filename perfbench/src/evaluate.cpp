// `perfbench-tool evaluate`: sends a key stream through one hop of the
// serving path and times every call.
//
//   --mode inproc   the evaluation in this process, no transport: the
//                   sizer (sizing::Sizer::size + store::encode_record, the
//                   server's compute path) or, with --memory, the memory
//                   tier (EvalKey + a util::LruByteCache lookup under a
//                   mutex, as a served shard does, of record bytes fetched
//                   once over the pool)
//   --mode pool     a bench-owned svc::ClientPool straight to intooa-served
//   --mode session  a bench-owned api::Session straight to intooa-served
//
// Requests are due Poisson-spaced at --rate from the seed (0 = all at once)
// and are taken by --threads callers. The call is timed, and spans record
// each request's lag behind its due time and its call. Every reply's
// FNV-1a record digest is checked against the key file's digest when it
// has one.
//
// `perfbench-tool store-replay` reads the records of a key file from one
// store and appends them to a fresh one, timing each EvalStore::append.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api/json.hpp"
#include "api/session.hpp"
#include "circuit/spec.hpp"
#include "circuit/topology.hpp"
#include "common.hpp"
#include "core/eval_key.hpp"
#include "sizing/sizer.hpp"
#include "store/record_io.hpp"
#include "store/store.hpp"
#include "svc/client_pool.hpp"
#include "svc/protocol.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/lru_cache.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace svc = intooa::svc;

svc::EvalRequest request_for(const Key& key) {
  svc::EvalRequest request;
  request.spec = intooa::circuit::spec_by_name(key.spec);
  request.topology_index = key.topology;
  return request;
}

/// Per-spec sizer and key context for the default request configuration,
/// exactly what intooa-served builds per shard.
struct LocalEvaluator {
  explicit LocalEvaluator(const svc::EvalRequest& request)
      : sizer(request.eval_context(), request.sizing),
        keys(request.eval_context(), request.sizing) {}
  intooa::sizing::Sizer sizer;
  intooa::core::EvalKeyContext keys;

  intooa::core::EvalKey key_of(std::uint64_t topology) const {
    return keys.key_for(intooa::circuit::Topology::from_index(topology));
  }

  /// The record bytes intooa-served computes for `topology`: sized with an
  /// RNG seeded by the key digest, so the result is a pure function of it.
  std::string compute(std::uint64_t topology_index) const {
    const auto topology = intooa::circuit::Topology::from_index(topology_index);
    const intooa::core::EvalKey key = keys.key_for(topology);
    intooa::core::EvalRecord record;
    record.topology = topology;
    intooa::util::Rng rng(key.digest);
    record.sized = sizer.size(topology, rng);
    return intooa::store::encode_record(key, record);
  }
};

std::map<std::string, std::unique_ptr<LocalEvaluator>> local_evaluators(
    const std::vector<Key>& keys) {
  std::map<std::string, std::unique_ptr<LocalEvaluator>> out;
  for (const Key& key : keys) {
    if (!out.count(key.spec)) {
      out[key.spec] = std::make_unique<LocalEvaluator>(request_for(key));
    }
  }
  return out;
}

}  // namespace

int run_evaluate(const intooa::util::Cli& cli) {
  cli.reject_unknown({"mode", "connect", "keys", "rate", "seed", "threads",
                      "memory", "spans"});
  intooa::util::set_log_level(intooa::util::LogLevel::Warn);
  const std::string mode = cli.get("mode", "inproc");
  const std::vector<Key> keys = read_keys(cli.get("keys", "keys.txt"));
  const double rate = cli.get_double("rate", 0.0);
  const std::size_t threads = std::max<std::size_t>(1, cli.get_size("threads", 1));
  SpanRecorder spans(cli.get("spans", ""));
  if (mode != "inproc" && mode != "pool" && mode != "session") {
    throw std::invalid_argument("unknown --mode " + mode);
  }

  std::vector<svc::Address> endpoints;
  if (cli.has("connect")) endpoints.push_back(svc::Address::parse(cli.get("connect", "")));
  std::unique_ptr<svc::ClientPool> pool;
  std::unique_ptr<intooa::api::Session> session;
  if (mode == "pool" || (mode == "inproc" && cli.has("memory"))) {
    pool = std::make_unique<svc::ClientPool>(endpoints);
  }
  if (mode == "session") {
    intooa::api::SessionConfig config;
    config.evaluators = endpoints;
    session = std::make_unique<intooa::api::Session>(config);
  }
  const auto local = local_evaluators(keys);

  // The memory tier: the record bytes of every distinct key, fetched once,
  // then served from the server's cache type under a lock, like a shard's
  // hit path (unbounded, intooa-served's default budget).
  std::mutex memory_mutex;
  intooa::util::LruByteCache memory;
  if (mode == "inproc" && cli.has("memory")) {
    for (const Key& key : keys) {
      const auto digest = local.at(key.spec)->key_of(key.topology).digest;
      if (memory.find(digest)) continue;
      const auto reply = pool->evaluate(request_for(key), digest);
      if (!reply) throw std::runtime_error("memory prefetch failed");
      memory.insert(digest, reply->record_payload);
    }
  }

  const auto call = [&](const Key& key) -> std::optional<std::string> {
    const LocalEvaluator& eval = *local.at(key.spec);
    if (mode == "inproc") {
      if (!cli.has("memory")) return eval.compute(key.topology);
      const auto digest = eval.key_of(key.topology).digest;
      std::lock_guard<std::mutex> lock(memory_mutex);
      if (const std::string* hit = memory.find(digest)) return *hit;
      return std::nullopt;
    }
    if (mode == "pool") {
      const auto reply = pool->evaluate(request_for(key), eval.key_of(key.topology).digest);
      if (!reply) return std::nullopt;
      return reply->record_payload;
    }
    auto outcome = session->evaluations().evaluate(request_for(key));
    if (!outcome.ok()) return std::nullopt;
    return outcome.value().record_payload;
  };

  const std::vector<std::uint64_t> due = arrival_offsets(
      keys.size(),
      rate > 0 ? static_cast<std::uint64_t>(static_cast<double>(keys.size()) / rate * 1e9) : 0,
      static_cast<std::uint64_t>(cli.get_size("seed", 1)));
  std::vector<double> service_us(keys.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0}, mismatched{0};
  const std::string hop = "hop." + mode;
  const std::uint64_t start = now_ns() + 20'000'000ULL;  // 20 ms lead-in

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= keys.size()) return;
        const std::uint64_t due_ns = start + due[i];
        sleep_until_ns(due_ns);
        const std::uint64_t sent = now_ns();
        std::optional<std::string> payload;
        try {
          payload = call(keys[i]);
        } catch (const std::exception&) {
          payload.reset();
        }
        const std::uint64_t done = now_ns();
        service_us[i] = static_cast<double>(done - sent) / 1e3;
        const std::uint64_t id = spans.reserve();
        spans.record("loadgen.lag", due_ns, sent, id, i + 1);
        spans.record(hop + ".call", sent, done, id, i + 1);
        spans.record_with_id(id, hop + ".request", due_ns, done, 0, i + 1);
        if (!payload) {
          ++failed;
          continue;
        }
        if (!keys[i].expect.empty() &&
            intooa::api::fnv1a_hex(*payload) != keys[i].expect) {
          ++mismatched;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  spans.write();

  std::uint64_t replays = 0;
  if (pool) replays = pool->stats().replays();
  std::printf(
      "{\"mode\":%s,\"sent\":%zu,\"failed\":%llu,\"mismatched\":%llu,"
      "\"service_p50_us\":%.6f,\"service_p99_us\":%.6f,\"replays\":%llu}\n",
      json_string(mode).c_str(), keys.size(),
      static_cast<unsigned long long>(failed.load()),
      static_cast<unsigned long long>(mismatched.load()), quantile(service_us, 0.5),
      quantile(service_us, 0.99), static_cast<unsigned long long>(replays));
  return failed.load() + mismatched.load() == 0 ? 0 : 3;
}

int run_store_replay(const intooa::util::Cli& cli) {
  cli.reject_unknown({"from", "to", "keys"});
  intooa::util::set_log_level(intooa::util::LogLevel::Warn);
  const std::vector<Key> keys = read_keys(cli.get("keys", "keys.txt"));
  const auto local = local_evaluators(keys);
  const auto source = intooa::store::EvalStore::open(cli.get("from", ""));
  const auto target = intooa::store::EvalStore::open(cli.get("to", ""));
  std::vector<double> micros;
  std::size_t missing = 0;
  for (const Key& key : keys) {
    const auto ekey = local.at(key.spec)->key_of(key.topology);
    const auto record = source->lookup(ekey);
    if (!record) {
      ++missing;
      continue;
    }
    const std::uint64_t start = now_ns();
    target->append(ekey, *record);
    micros.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  std::printf("{\"appends\":%zu,\"missing\":%zu,\"append_us_p50\":%.6f}\n",
              micros.size(), missing, quantile(micros, 0.5));
  return 0;
}

}  // namespace perfbench
