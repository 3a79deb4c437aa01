#include "svc/client_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/connection_host.hpp"
#include "util/log.hpp"

namespace intooa::svc {

namespace {

/// Poll slice while replies are outstanding: short enough that stop
/// requests and newly enqueued work are noticed promptly, long enough
/// that an idle-but-inflight connection does not spin.
constexpr int kPoolPollSliceMs = 20;

/// Idle wait cap when nothing is in flight and nothing is sendable.
constexpr int kIdleWaitMs = 100;

std::uint64_t splitmix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// ±25% deterministic jitter around `base`: a pure function of the seed,
/// never util::Rng, which would perturb result streams.
std::uint32_t jittered_ms(std::uint32_t base, std::uint64_t seed) {
  const auto pct = static_cast<std::int64_t>(splitmix(seed) % 51) - 25;
  const std::int64_t v = static_cast<std::int64_t>(base) +
                         static_cast<std::int64_t>(base) * pct / 100;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(v, 1));
}

/// Per-request trace and span ids: a relaxed atomic counter, never
/// util::Rng (ids must not perturb any random stream). Each traced request
/// gets a fresh trace id, which doubles as the flow id linking the client
/// request span to the server's evaluate span.
std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Client-side bookkeeping for one traced request on the wire.
struct TracedSend {
  std::uint64_t sent_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< the client request span's id
};

/// Records the merged client+server spans for one response carrying
/// server timings.
void record_merged_spans(const TracedSend& traced,
                         const ServerTimings& timings,
                         std::uint64_t received_ns) {
  if (!obs::trace_enabled()) return;
  // The client request span, on the local process row. Its flow arrow
  // (id = trace id) lands on the server's evaluate span.
  obs::TraceEvent request_span;
  request_span.name = "svc.client.request";
  request_span.tid = util::thread_ordinal();
  request_span.start_ns = traced.sent_ns;
  request_span.duration_ns =
      received_ns > traced.sent_ns ? received_ns - traced.sent_ns : 0;
  request_span.trace_id = traced.trace_id;
  request_span.span_id = traced.span_id;
  request_span.flow_out = traced.trace_id;
  obs::trace_record_event(request_span);

  // The server's stage spans, reconstructed from the response trailer on
  // the remote-process row. The two clocks are unrelated, so the stages
  // are laid back-to-back and centered inside the client span (the
  // remaining slack is symmetric transport time) — an approximation that
  // preserves every duration exactly.
  const std::uint64_t server_total = timings.decode_ns + timings.queue_ns +
                                     timings.eval_ns + timings.encode_ns;
  std::uint64_t offset = 0;
  if (request_span.duration_ns > server_total) {
    offset = (request_span.duration_ns - server_total) / 2;
  }
  std::uint64_t cursor = traced.sent_ns + offset;
  const auto stage = [&](const char* name, std::uint64_t duration_ns,
                         bool is_evaluate) {
    obs::TraceEvent event;
    event.name = name;
    event.pid = obs::kRemotePid;
    event.tid = 0;
    event.start_ns = cursor;
    event.duration_ns = duration_ns;
    event.trace_id = timings.trace_id;
    event.span_id = timings.server_span_id;
    if (is_evaluate) event.flow_in = traced.trace_id;
    obs::trace_record_event(event);
    cursor += duration_ns;
  };
  stage("svc.server.decode", timings.decode_ns, false);
  stage("svc.server.queue", timings.queue_ns, false);
  stage("svc.server.evaluate", timings.eval_ns, true);
  stage("svc.server.encode", timings.encode_ns, false);
}

}  // namespace

std::uint32_t retry_backoff_ms(std::uint32_t hint_ms,
                               std::uint64_t request_id, int attempt) {
  const std::uint32_t base = std::clamp<std::uint32_t>(hint_ms, 10u, 2000u);
  // splitmix64 finalizer over (id, attempt): cheap, deterministic, and
  // well-spread — and never util::Rng, which would perturb result streams.
  const std::uint64_t z = splitmix(
      request_id +
      0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(attempt) + 1));
  const auto pct = static_cast<std::int64_t>(z % 51) - 25;  // [-25, +25]
  const std::int64_t jittered =
      static_cast<std::int64_t>(base) +
      static_cast<std::int64_t>(base) * pct / 100;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(jittered, 1));
}

std::uint64_t ClientPoolStats::requests() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.requests;
  return total;
}

std::uint64_t ClientPoolStats::reconnects() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.reconnects;
  return total;
}

std::uint64_t ClientPoolStats::replays() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.replays;
  return total;
}

ClientPool::ClientPool(std::vector<Address> endpoints, ClientPoolConfig config)
    : config_(config) {
  if (endpoints.empty()) {
    throw std::invalid_argument("svc: ClientPool needs at least one endpoint");
  }
  if (config_.max_inflight == 0) {
    throw std::invalid_argument("svc: ClientPool max_inflight must be >= 1");
  }
  endpoints_.reserve(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->address = std::move(endpoints[i]);
    ep->index = i;
    ep->requests_metric =
        &obs::registry().counter("svc.pool.requests." + std::to_string(i));
    endpoints_.push_back(std::move(ep));
  }
  for (auto& ep : endpoints_) {
    ep->thread = std::thread([this, e = ep.get()] { run_endpoint(*e); });
  }
}

ClientPool::~ClientPool() { close(); }

void ClientPool::close() {
  if (closed_.exchange(true)) return;
  for (auto& ep : endpoints_) {
    std::lock_guard<std::mutex> lock(ep->mutex);
    ep->stop = true;
    ep->cv.notify_all();
  }
  for (auto& ep : endpoints_) {
    if (ep->thread.joinable()) ep->thread.join();
  }
}

std::optional<EvalResponse> ClientPool::evaluate(const EvalRequest& request,
                                                 std::uint64_t shard_digest) {
  Endpoint& ep = *endpoints_[shard_of(shard_digest)];
  auto pending = std::make_shared<Pending>();
  pending->request = request;
  pending->request.request_id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(ep.mutex);
    if (ep.stop || ep.down) return std::nullopt;
    ep.pending.emplace(pending->request.request_id, pending);
    ep.cv.notify_all();
    ep.cv.wait(lock, [&] {
      return pending->done || pending->failed || ep.stop;
    });
  }
  if (pending->done) return std::move(pending->response);
  return std::nullopt;
}

ClientPoolStats ClientPool::stats() const {
  ClientPoolStats out;
  out.endpoints.reserve(endpoints_.size());
  for (const auto& ep : endpoints_) {
    std::lock_guard<std::mutex> lock(ep->mutex);
    EndpointStats s;
    s.address = ep->address.to_string();
    s.requests = ep->requests;
    s.reconnects = ep->reconnects;
    s.replays = ep->replays;
    s.busy = ep->busy;
    s.down = ep->down;
    out.endpoints.push_back(std::move(s));
  }
  return out;
}

void ClientPool::mark_for_replay(Endpoint& ep) {
  static obs::Counter& replay_counter =
      obs::registry().counter("svc.pool.replays");
  std::uint64_t replayed = 0;
  {
    std::lock_guard<std::mutex> lock(ep.mutex);
    for (auto& [id, p] : ep.pending) {
      if (p->sent && !p->done && !p->failed) {
        p->sent = false;
        ++replayed;
      }
    }
    ep.replays += replayed;
  }
  if (replayed > 0) replay_counter.add(replayed);
}

void ClientPool::fail_all(Endpoint& ep) {
  // Caller holds ep.mutex. Waiters keep their shared_ptr; clearing the map
  // only drops the worker's reference.
  for (auto& [id, p] : ep.pending) p->failed = true;
  ep.pending.clear();
  ep.cv.notify_all();
}

void ClientPool::run_endpoint(Endpoint& ep) {
  static obs::Counter& reconnect_counter =
      obs::registry().counter("svc.pool.reconnects");
  bool connected_before = false;
  int consecutive_failures = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      if (ep.stop) break;
    }
    Dialed dialed;
    try {
      dialed = dial_hello(ep.address);
    } catch (const std::exception&) {
      // Any dial or handshake failure counts toward marking the endpoint
      // down; the backoff below paces the next attempt.
    }
    if (!dialed.fd.valid()) {
      ++consecutive_failures;
      bool newly_down = false;
      {
        std::lock_guard<std::mutex> lock(ep.mutex);
        if (consecutive_failures >= config_.max_connect_attempts &&
            !ep.down) {
          ep.down = true;
          newly_down = true;
        }
        // Fail-fast while unreachable: nothing may sit queued behind a
        // dead endpoint — the caller's local sizer produces the same
        // bytes, so failing here costs work, never correctness.
        if (ep.down) fail_all(ep);
      }
      if (newly_down) {
        util::log_warn("svc: endpoint " + ep.address.to_string() +
                       " marked down after " +
                       std::to_string(consecutive_failures) +
                       " connect failures; probing in background");
      }
      // Exponential backoff with deterministic jitter; a down endpoint is
      // probed at the cap.
      const int shift = std::min(consecutive_failures - 1, 6);
      std::uint32_t backoff = config_.reconnect_base_ms << shift;
      backoff = std::min(backoff, config_.reconnect_cap_ms);
      const std::uint32_t sleep_ms = jittered_ms(
          backoff, (ep.index + 1) * 0x9E3779B97F4A7C15ull +
                       static_cast<std::uint64_t>(consecutive_failures));
      std::unique_lock<std::mutex> lock(ep.mutex);
      ep.cv.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                     [&] { return ep.stop; });
      if (ep.stop) break;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      ep.down = false;
      if (connected_before) ++ep.reconnects;
    }
    if (connected_before) {
      reconnect_counter.add();
      util::log_info("svc: endpoint " + ep.address.to_string() +
                     " reconnected");
    }
    connected_before = true;
    consecutive_failures = 0;
    const ServeEnd end = serve(ep, dialed.fd.get(), dialed.server_minor);
    dialed.fd.reset();
    if (end == ServeEnd::Stop) break;
    mark_for_replay(ep);
  }
  std::lock_guard<std::mutex> lock(ep.mutex);
  fail_all(ep);
}

ClientPool::ServeEnd ClientPool::serve(Endpoint& ep, int fd,
                                      std::uint32_t server_minor) {
  static obs::Gauge& inflight_gauge =
      obs::registry().gauge("svc.pool.inflight");
  static obs::Counter& busy_counter = obs::registry().counter("svc.pool.busy");
  std::size_t inflight = 0;  // sent-unanswered on this connection
  const auto settle = [&](ServeEnd end) {
    // Whatever is still unanswered leaves the wire with this connection;
    // the caller replays (Lost) or fails (Stop) it.
    inflight_gauge.set(static_cast<double>(
        total_inflight_.fetch_sub(static_cast<std::int64_t>(inflight)) -
        static_cast<std::int64_t>(inflight)));
    return end;
  };
  const auto resolve_one = [&] {
    --inflight;
    inflight_gauge.set(static_cast<double>(total_inflight_.fetch_sub(1) - 1));
  };
  // Trace bookkeeping of this connection's traced requests, by request id
  // (worker-local; empty unless tracing). A reply settles its entry, and
  // an Ok reply with server timings records the merged spans.
  std::unordered_map<std::uint64_t, TracedSend> traced;
  const auto settle_trace = [&](std::uint64_t id,
                                const std::optional<ServerTimings>& timings) {
    if (traced.empty()) return;
    const auto it = traced.find(id);
    if (it == traced.end()) return;
    if (timings) {
      record_merged_spans(it->second, *timings, obs::detail::monotonic_ns());
    }
    traced.erase(it);
  };
  for (;;) {
    // Send every request that fits under the inflight cap and is past its
    // Busy backoff gate, in request-id order.
    std::vector<std::string> frames;
    std::uint64_t now = obs::detail::monotonic_ns();
    std::uint64_t next_gate_ns = 0;
    const bool trace = server_minor >= 1 && obs::trace_enabled();
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      if (ep.stop) return settle(ServeEnd::Stop);
      for (auto& [id, p] : ep.pending) {
        if (inflight + frames.size() >= config_.max_inflight) break;
        if (p->sent) continue;
        if (p->not_before_ns > now) {
          if (next_gate_ns == 0 || p->not_before_ns < next_gate_ns) {
            next_gate_ns = p->not_before_ns;
          }
          continue;
        }
        p->sent = true;
        ++ep.requests;
        if (trace) {
          const TracedSend sent{now, next_trace_id(), next_trace_id()};
          p->request.trace = TraceContext{sent.trace_id, sent.span_id};
          traced[id] = sent;
        } else {
          // Never a caller's context, nor a stale one on a replay (the
          // new server may be a 1.0 build).
          p->request.trace.reset();
        }
        frames.push_back(encode_frame(MsgType::EvalRequest,
                                      encode_eval_request(p->request)));
      }
    }
    if (!frames.empty()) {
      ep.requests_metric->add(frames.size());
      inflight += frames.size();
      inflight_gauge.set(static_cast<double>(
          total_inflight_.fetch_add(static_cast<std::int64_t>(frames.size())) +
          static_cast<std::int64_t>(frames.size())));
      for (const auto& f : frames) {
        if (!write_all(fd, f)) return settle(ServeEnd::Lost);
      }
    }

    if (inflight == 0) {
      // Nothing on the wire: sleep until new work, a backoff gate opens,
      // or stop — predicate-checked, so no enqueue is ever missed.
      std::unique_lock<std::mutex> lock(ep.mutex);
      if (ep.stop) return settle(ServeEnd::Stop);
      std::uint64_t wait_ms = kIdleWaitMs;
      if (next_gate_ns > now) {
        wait_ms = std::min<std::uint64_t>(
            wait_ms, (next_gate_ns - now) / 1'000'000 + 1);
      }
      ep.cv.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
        if (ep.stop) return true;
        const std::uint64_t t = obs::detail::monotonic_ns();
        for (const auto& [id, p] : ep.pending) {
          if (!p->sent && p->not_before_ns <= t) return true;
        }
        return false;
      });
      continue;
    }

    Frame frame;
    const ReadStatus status = read_frame(fd, frame, kPoolPollSliceMs);
    if (status == ReadStatus::Timeout) continue;
    if (status != ReadStatus::Ok) return settle(ServeEnd::Lost);
    switch (frame.type) {
      case MsgType::EvalResponse: {
        auto response = decode_eval_response(frame.payload);
        if (!response) return settle(ServeEnd::Lost);
        // Before resolving, so the spans are recorded when evaluate()
        // returns.
        settle_trace(response->request_id, response->timings);
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(response->request_id);
        if (it == ep.pending.end()) break;  // already failed and reaped
        it->second->done = true;
        it->second->response = std::move(*response);
        ep.pending.erase(it);
        resolve_one();
        ep.cv.notify_all();
        break;
      }
      case MsgType::Busy: {
        const auto busy = decode_busy(frame.payload);
        if (!busy) return settle(ServeEnd::Lost);
        settle_trace(busy->request_id, std::nullopt);
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(busy->request_id);
        if (it == ep.pending.end()) break;
        Pending& p = *it->second;
        p.sent = false;
        p.not_before_ns =
            obs::detail::monotonic_ns() +
            static_cast<std::uint64_t>(
                retry_backoff_ms(busy->retry_after_ms, busy->request_id,
                                 p.busy_attempts++)) *
                1'000'000ull;
        ++ep.busy;
        busy_counter.add();
        resolve_one();
        break;
      }
      case MsgType::Error: {
        const auto error = decode_error(frame.payload);
        if (!error) return settle(ServeEnd::Lost);
        if (error->code == ErrorCode::Draining || error->request_id == 0) {
          // The server is going away (or reported a connection-level
          // fault): everything unanswered on this connection — the
          // drained request included — replays on the next one.
          return settle(ServeEnd::Lost);
        }
        settle_trace(error->request_id, std::nullopt);
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(error->request_id);
        if (it == ep.pending.end()) break;
        util::log_warn("svc: endpoint " + ep.address.to_string() +
                       " failed request " + std::to_string(error->request_id) +
                       " (" + std::string(error_code_name(error->code)) +
                       "): " + error->message);
        it->second->failed = true;
        ep.pending.erase(it);
        resolve_one();
        ep.cv.notify_all();
        break;
      }
      default:
        // A reply type we never solicit: the stream is confused beyond
        // this frame, so resync with a fresh connection.
        return settle(ServeEnd::Lost);
    }
  }
}

}  // namespace intooa::svc
