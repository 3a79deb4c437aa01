// `perfbench-tool loadgen`: the open-loop HTTP load generator. Sends
// POST /v1/evaluations to intooa-gateway over --conns keep-alive
// connections (one thread each), pipelining: a request is written when it
// is due, whether or not earlier replies have arrived.
//
//   --schedule R:S[,R:S...]  steps of S seconds at R requests/s: R x S
//                            arrivals per step, Poisson-spaced, drawn from
//                            --seed (R = 0: the rest of the stream at once)
//   --port PORT              the gateway's TCP port on 127.0.0.1
//   --keys FILE              the request stream ("SPEC TOPOLOGY [DIGEST]"
//                            per line), consumed in order across steps
//   --limit-ms MS            the p99 latency limit: a failed request is
//                            charged twice it, and it sets the slack of
//                            the backlog-growth test
//   --cpu-pids P[,P...]      processes whose CPU time (/proc) is read at
//                            each step's start and end
//   --drain-ms MS            how long a step waits for replies after its
//                            send window; then what is unanswered fails and
//                            the connections are redialled
//   --replies FILE           one line per request: step, key, status,
//                            digest, latency
//
// Latency is timed from each request's due time, so a stall also charges
// the requests queued behind it. The generator reports how late it wrote
// requests (lag) and samples the backlog (requests written but not
// answered) every 5 ms to detect a step whose backlog grows.

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/cli.hpp"

namespace perfbench {

namespace {

struct Step {
  double rate = 0.0;
  double seconds = 0.0;
};

struct Request {
  std::size_t key = 0;
  std::size_t step = 0;
  std::uint64_t due = 0, sent = 0, done = 0;
  int status = 0;  ///< HTTP status; -1 = connection lost or timed out
  bool mismatch = false;
  std::string digest;
};

std::vector<Step> parse_schedule(const std::string& text) {
  std::vector<Step> steps;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) throw std::invalid_argument("bad step " + item);
    steps.push_back(Step{std::stod(item.substr(0, colon)),
                         std::stod(item.substr(colon + 1))});
  }
  return steps;
}

/// CPU time of `pids` in seconds: the sum over their live threads of
/// /proc/PID/task/TID/schedstat (nanosecond run time), falling back to the
/// tick-granular utime + stime of /proc/PID/stat where schedstat is absent.
/// Both daemons keep their threads for the whole step (keep-alive
/// connections, fixed pools), so no thread's time is lost between reads.
double cpu_seconds(const std::vector<int>& pids) {
  double total = 0.0;
  for (const int pid : pids) {
    const std::string proc = "/proc/" + std::to_string(pid);
    double threads = 0.0;
    bool have_schedstat = false;
    if (DIR* dir = opendir((proc + "/task").c_str())) {
      while (const dirent* entry = readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        std::ifstream in(proc + "/task/" + entry->d_name + "/schedstat");
        double run_ns = 0.0;
        if (in >> run_ns) {
          threads += run_ns / 1e9;
          have_schedstat = true;
        }
      }
      closedir(dir);
    }
    if (have_schedstat) {
      total += threads;
      continue;
    }
    std::ifstream in(proc + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    // Fields after the command: state is field 3; utime/stime are 14/15.
    for (int index = 3; index <= 15 && fields >> field; ++index) {
      if (index == 14 || index == 15) total += std::stod(field) / tick;
    }
  }
  return total;
}

/// A non-blocking TCP_NODELAY connection to the gateway on loopback.
int dial(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses one complete HTTP response off the front of `in`; returns false
/// when more bytes are needed.
bool take_response(std::string& in, int& status, std::string& body) {
  const auto head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::size_t length = 0;
  std::size_t line = in.find("\r\n");
  status = std::atoi(in.c_str() + 9);  // "HTTP/1.1 200 ..."
  while (line < head_end) {
    const std::size_t next = in.find("\r\n", line + 2);
    const std::string header = in.substr(line + 2, next - line - 2);
    if (strncasecmp(header.c_str(), "content-length:", 15) == 0) {
      length = std::strtoull(header.c_str() + 15, nullptr, 10);
    }
    line = next;
  }
  if (in.size() < head_end + 4 + length) return false;
  body = in.substr(head_end + 4, length);
  in.erase(0, head_end + 4 + length);
  return true;
}

std::string field_of(const std::string& body, const std::string& name) {
  const std::string tag = "\"" + name + "\":\"";
  const auto at = body.find(tag);
  if (at == std::string::npos) return "";
  const auto end = body.find('"', at + tag.size());
  return body.substr(at + tag.size(), end - at - tag.size());
}

struct StepResult {
  std::size_t sent = 0, ok = 0, failed = 0, mismatched = 0, status_5xx = 0;
  double p50_ms = 0, p99_ms = 0, lag_p99_ms = 0, service_p50_ms = 0;
  double cpu_s = 0, wall_s = 0;
  double backlog_max = 0;
  bool backlog_growing = false;
};

}  // namespace

int run_loadgen(const intooa::util::Cli& cli) {
  cli.reject_unknown({"port", "keys", "schedule", "seed", "conns",
                      "limit-ms", "cpu-pids", "replies",
                      "spans", "drain-ms"});
  const int port = static_cast<int>(cli.get_int("port", 8080));
  const std::vector<Key> keys = read_keys(cli.get("keys", "keys.txt"));
  const std::vector<Step> steps = parse_schedule(cli.get("schedule", "100:1"));
  const std::uint64_t seed = cli.get_size("seed", 1);
  const std::size_t conns = std::max<std::size_t>(1, cli.get_size("conns", 1));
  const double limit_ms = cli.get_double("limit-ms", 1e9);
  const double drain_ms = cli.get_double("drain-ms", 5000);
  std::vector<int> pids;
  {
    std::stringstream in(cli.get("cpu-pids", ""));
    std::string item;
    while (std::getline(in, item, ',')) {
      if (!item.empty()) pids.push_back(std::stoi(item));
    }
  }
  SpanRecorder spans(cli.get("spans", ""));

  std::vector<int> fds(conns, -1);
  for (std::size_t c = 0; c < conns; ++c) {
    fds[c] = dial(port);
    if (fds[c] < 0) throw std::runtime_error("cannot connect to the gateway");
  }

  std::vector<Request> requests;
  std::vector<StepResult> results;
  std::size_t next_key = 0;
  std::atomic<std::int64_t> outstanding{0};

  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    // This step's arrivals: rate x seconds of them, Poisson-spaced over
    // the step; a rate of 0 sends the rest of the key stream at once.
    const std::uint64_t window =
        step.rate > 0 ? static_cast<std::uint64_t>(step.seconds * 1e9) : 0;
    const std::size_t count =
        step.rate > 0 ? static_cast<std::size_t>(std::llround(step.rate * step.seconds))
                      : keys.size() - next_key;
    const std::vector<std::uint64_t> offsets =
        arrival_offsets(count, window, seed * 1000003ULL + s);
    if (next_key + offsets.size() > keys.size()) {
      throw std::runtime_error("key stream too short for the schedule");
    }
    const std::size_t first = requests.size();
    const std::uint64_t start = now_ns() + 10'000'000ULL;
    for (const std::uint64_t offset : offsets) {
      Request r;
      r.key = next_key++;
      r.step = s;
      r.due = start + offset;
      requests.push_back(r);
    }
    const std::size_t last = requests.size();
    const double cpu0 = cpu_seconds(pids);
    const std::uint64_t deadline = start + window + static_cast<std::uint64_t>(drain_ms * 1e6);

    // Backlog sampler: requests written but not yet answered, every 5 ms.
    std::atomic<bool> sampling{true};
    std::vector<std::pair<std::uint64_t, std::int64_t>> samples;
    std::thread sampler([&] {
      while (sampling.load()) {
        samples.emplace_back(now_ns(), outstanding.load());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        std::deque<std::size_t> pending;
        std::string out, in;
        std::size_t index = first + c;
        const auto fail_pending = [&] {
          for (const std::size_t i : pending) {
            requests[i].status = -1;
            requests[i].done = now_ns();
            --outstanding;
          }
          pending.clear();
          out.clear();
          in.clear();
        };
        for (;;) {
          std::uint64_t now = now_ns();
          while (index < last && requests[index].due <= now) {
            Request& r = requests[index];
            const Key& key = keys[r.key];
            const std::string body = "{\"spec\":\"" + key.spec +
                                     "\",\"topology\":" + std::to_string(key.topology) + "}";
            out += "POST /v1/evaluations HTTP/1.1\r\nHost: 127.0.0.1"
                   "\r\nContent-Type: application/json\r\nContent-Length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body;
            r.sent = now;
            pending.push_back(index);
            ++outstanding;
            index += conns;
          }
          bool lost = fds[c] < 0;
          if (!lost && !out.empty()) {
            const ssize_t n = send(fds[c], out.data(), out.size(), MSG_NOSIGNAL);
            if (n > 0) {
              out.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
              lost = true;
            }
          }
          if (index >= last && pending.empty()) break;
          now = now_ns();
          if (now >= deadline) {
            // Out of time: what is in flight and what was never written
            // both fail. The gateway still owes replies to the requests in
            // flight, so the connection goes too: the next step must not
            // take those replies for its own.
            fail_pending();
            for (; index < last; index += conns) {
              requests[index].status = -1;
              requests[index].sent = requests[index].done = now;
            }
            if (fds[c] >= 0) close(fds[c]);
            fds[c] = dial(port);
            break;
          }
          if (!lost) {
            const std::uint64_t wake =
                index < last ? std::min(requests[index].due, deadline) : deadline;
            const std::uint64_t wait = wake > now ? wake - now : 0;
            timespec ts{static_cast<time_t>(wait / 1'000'000'000ULL),
                        static_cast<long>(wait % 1'000'000'000ULL)};
            pollfd pfd{fds[c], static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
            if (ppoll(&pfd, 1, &ts, nullptr) > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
              char buf[65536];
              const ssize_t n = recv(fds[c], buf, sizeof buf, 0);
              if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
                lost = true;
              } else if (n > 0) {
                in.append(buf, static_cast<std::size_t>(n));
                int status = 0;
                std::string body;
                while (!pending.empty() && take_response(in, status, body)) {
                  Request& r = requests[pending.front()];
                  pending.pop_front();
                  r.done = now_ns();
                  r.status = status;
                  r.digest = field_of(body, "record_fnv1a");
                  const std::string& expect = keys[r.key].expect;
                  r.mismatch = status == 200 && !expect.empty() && r.digest != expect;
                  --outstanding;
                }
              }
            }
          }
          if (lost) {
            // A lost connection fails what it carried; later requests go
            // out on a fresh one.
            fail_pending();
            if (fds[c] >= 0) close(fds[c]);
            fds[c] = dial(port);
            if (fds[c] < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    sampling = false;
    sampler.join();
    const std::uint64_t end = now_ns();

    StepResult result;
    result.cpu_s = cpu_seconds(pids) - cpu0;
    result.wall_s = static_cast<double>(end - start) / 1e9;
    std::vector<double> latency_ms, lag_ms, service_ms;
    for (std::size_t i = first; i < last; ++i) {
      const Request& r = requests[i];
      ++result.sent;
      if (r.status >= 500) ++result.status_5xx;
      // A failed request misses any limit: it enters the latency
      // distribution at the drain deadline or its actual failure time.
      latency_ms.push_back(static_cast<double>(std::max(r.done, r.due) - r.due) / 1e6);
      lag_ms.push_back(static_cast<double>(r.sent - r.due) / 1e6);
      service_ms.push_back(static_cast<double>(std::max(r.done, r.sent) - r.sent) / 1e6);
      if (r.status != 200) {
        ++result.failed;
        latency_ms.back() = std::max(latency_ms.back(), limit_ms * 2);
      } else if (r.mismatch) {
        ++result.mismatched;
        ++result.failed;
      } else {
        ++result.ok;
      }
      if (spans.enabled()) {
        const std::uint64_t id = spans.reserve();
        spans.record("loadgen.lag", r.due, r.sent, id, i + 1);
        spans.record("http.wait", r.sent, r.done, id, i + 1);
        spans.record_with_id(id, "http.request", r.due, r.done, 0, i + 1);
      }
    }
    result.p50_ms = quantile(latency_ms, 0.5);
    result.p99_ms = quantile(latency_ms, 0.99);
    result.lag_p99_ms = quantile(lag_ms, 0.99);
    result.service_p50_ms = quantile(service_ms, 0.5);
    // Growth: mean backlog over the last fifth of the send window against
    // the second fifth, with one latency limit's worth of arrivals (at
    // least two per connection) as slack.
    double mid = 0, tail = 0, mid_n = 0, tail_n = 0;
    for (const auto& [t, depth] : samples) {
      result.backlog_max = std::max(result.backlog_max, static_cast<double>(depth));
      if (t < start) continue;
      const double phase = static_cast<double>(t - start) / static_cast<double>(window);
      if (phase >= 0.2 && phase < 0.4) { mid += depth; ++mid_n; }
      if (phase >= 0.8 && phase < 1.0) { tail += depth; ++tail_n; }
    }
    if (mid_n > 0 && tail_n > 0) {
      result.backlog_growing =
          tail / tail_n > 2 * (mid / mid_n) +
                              std::max(2.0 * static_cast<double>(conns), step.rate * limit_ms / 1e3);
    }
    results.push_back(result);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (const int fd : fds) {
    if (fd >= 0) close(fd);
  }
  spans.write();

  if (cli.has("replies")) {
    std::ofstream out(cli.get("replies", ""));
    for (const Request& r : requests) {
      const Key& key = keys[r.key];
      out << r.step << " " << key.spec << " " << key.topology << " " << r.status << " "
          << (r.digest.empty() ? "-" : r.digest) << " "
          << static_cast<double>(r.done - r.due) / 1e6 << "\n";
    }
  }

  std::ostringstream json;
  json.precision(12);
  json << "{\"steps\":[";
  for (std::size_t s = 0; s < results.size(); ++s) {
    const StepResult& r = results[s];
    json << (s ? "," : "") << "{\"rate\":" << steps[s].rate << ",\"seconds\":" << steps[s].seconds
         << ",\"sent\":" << r.sent << ",\"ok\":" << r.ok << ",\"failed\":" << r.failed
         << ",\"mismatched\":" << r.mismatched << ",\"status_5xx\":" << r.status_5xx
         << ",\"p50_ms\":" << r.p50_ms << ",\"p99_ms\":" << r.p99_ms
         << ",\"lag_p99_ms\":" << r.lag_p99_ms << ",\"service_p50_ms\":" << r.service_p50_ms << ",\"backlog_max\":" << r.backlog_max
         << ",\"backlog_growing\":" << (r.backlog_growing ? "true" : "false")
         << ",\"cpu_s\":" << r.cpu_s << ",\"wall_s\":" << r.wall_s << "}";
  }
  json << "]}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace perfbench
