#include "svc/connection_host.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::svc {

namespace {

/// Accept-loop tick: the longest a daemon's tick hook goes uncalled.
constexpr int kTickMs = 1000;

/// Poll slice while waiting for a Hello: short enough that a drain is
/// observed promptly, long enough to cost nothing.
constexpr int kHelloSliceMs = 100;

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Written before the handlers are installed, read only by them.
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<int> g_drain_signals{0};

void write_wake_byte(char byte) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

// Async-signal-safe: the first signal asks for a drain, the second exits.
void on_drain_signal(int sig) {
  if (g_drain_signals.fetch_add(1, std::memory_order_relaxed) > 0) {
    _exit(128 + sig);
  }
  write_wake_byte(1);
}

void on_dump_signal(int) { write_wake_byte(kWakeDump); }

void install_handler(int sig, void (*handler)(int)) {
  struct sigaction action {};
  action.sa_handler = handler;
  sigemptyset(&action.sa_mask);
  sigaction(sig, &action, nullptr);
}

}  // namespace

ConnectionHost::ConnectionHost(std::string name, Address address,
                               std::size_t max_connections,
                               int drain_linger_ms)
    : name_(std::move(name)),
      address_(std::move(address)),
      max_connections_(max_connections),
      drain_linger_ms_(drain_linger_ms) {}

ConnectionHost::~ConnectionHost() {
  begin_drain();
  join_all_connections();
}

void ConnectionHost::bind() {
  if (bound()) return;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(errno_text(name_ + ": pipe"));
  }
  wake_rx_ = Fd(pipe_fds[0]);
  wake_tx_ = Fd(pipe_fds[1]);
  listen_fd_ = listen_on(address_);
}

void ConnectionHost::run(const Hooks& hooks) {
  bind();
  while (!draining()) {
    struct pollfd fds[2];
    fds[0] = {listen_fd_.get(), POLLIN, 0};
    fds[1] = {wake_rx_.get(), POLLIN, 0};
    const int got = ::poll(fds, 2, kTickMs);
    if (got < 0) {
      if (errno == EINTR) continue;
      util::log_error(errno_text(name_ + ": accept poll"));
      break;
    }
    if (hooks.tick) hooks.tick();
    reap_finished_connections();
    if (fds[1].revents != 0 && read_wake(hooks)) break;
    if (fds[0].revents != 0) accept_one(hooks.serve, hooks.refuse);
  }
  begin_drain();  // also after a poll failure, so the handlers wind down
  if (drain_linger_ms_ > 0 && hooks.linger) linger(hooks);
  join_all_connections();
  if (address_.kind == Address::Kind::Unix) {
    ::unlink(address_.path.c_str());
  }
}

bool ConnectionHost::read_wake(const Hooks& hooks) {
  char bytes[16];
  const ssize_t n = ::read(wake_rx_.get(), bytes, sizeof bytes);
  bool drain = n <= 0;
  for (ssize_t i = 0; i < n; ++i) {
    if (bytes[i] == kWakeDump && hooks.dump) {
      hooks.dump();
    } else {
      drain = true;
    }
  }
  return drain;
}

void ConnectionHost::linger(const Hooks& hooks) {
  const std::uint64_t deadline =
      obs::detail::monotonic_ns() +
      static_cast<std::uint64_t>(drain_linger_ms_) * 1'000'000;
  for (;;) {
    const std::int64_t left_ns =
        static_cast<std::int64_t>(deadline - obs::detail::monotonic_ns());
    if (left_ns <= 0) break;
    struct pollfd p{listen_fd_.get(), POLLIN, 0};
    const int got = ::poll(
        &p, 1,
        static_cast<int>(std::min<std::int64_t>(
            (left_ns + 999'999) / 1'000'000, kTickMs)));
    if (got < 0 && errno != EINTR) break;
    reap_finished_connections();
    if (got > 0 && p.revents != 0) accept_one(hooks.linger, hooks.refuse);
  }
}

void ConnectionHost::accept_one(const Serve& serve,
                                const std::function<void(int)>& refuse) {
  Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
  if (!client.valid()) {
    if (errno != EINTR && errno != ECONNABORTED) {
      util::log_error(errno_text(name_ + ": accept"));
    }
    return;
  }
  if (open_connections() >= max_connections_) {
    refuse(client.get());
    return;
  }
  std::string peer = peer_name(client.get());
  open_connections_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(threads_mutex_);
  const std::uint64_t id = next_connection_id_++;
  connection_threads_.emplace(
      id, std::thread([this, id, serve, fd = std::move(client),
                       peer = std::move(peer)]() mutable {
        try {
          serve(std::move(fd), std::move(peer));
        } catch (const std::exception& e) {
          // Escaping the thread would end the process; drop only this
          // connection.
          util::log_error(name_ + ": connection handler: " + e.what());
        }
        open_connections_.fetch_sub(1, std::memory_order_relaxed);
        // Announce completion so the accept loop can reap this thread;
        // must be the handler thread's last touch of host state.
        std::lock_guard<std::mutex> lock(threads_mutex_);
        finished_ids_.push_back(id);
      }));
}

void ConnectionHost::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the acceptor (harmless when called from run() itself).
  if (wake_tx_.valid()) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_tx_.get(), &byte, 1);
  }
}

std::size_t ConnectionHost::connection_thread_count() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  return connection_threads_.size();
}

void ConnectionHost::reap_finished_connections() {
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const std::uint64_t id : finished_ids_) {
      const auto it = connection_threads_.find(id);
      if (it == connection_threads_.end()) continue;
      reaped.push_back(std::move(it->second));
      connection_threads_.erase(it);
    }
    finished_ids_.clear();
  }
  // An announced thread has nothing left to do but unwind: these joins
  // return promptly. Outside the lock all the same.
  for (auto& thread : reaped) {
    if (thread.joinable()) thread.join();
  }
}

void ConnectionHost::join_all_connections() {
  // Move the threads out before joining: a finishing handler takes
  // threads_mutex_ to announce its id, so joining under the lock would
  // deadlock against it.
  std::map<std::uint64_t, std::thread> drained;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    drained.swap(connection_threads_);
    finished_ids_.clear();
  }
  for (auto& [id, thread] : drained) {
    if (thread.joinable()) thread.join();
  }
}

bool serve_hello(int fd, const std::string& peer, const ConnectionHost& host,
                 int idle_timeout_ms, const std::function<void()>& on_error) {
  Frame frame;
  ReadStatus status = ReadStatus::Timeout;
  for (int waited = 0; !host.draining(); waited += kHelloSliceMs) {
    if (idle_timeout_ms >= 0 && waited >= idle_timeout_ms) break;
    status = read_frame(fd, frame, kHelloSliceMs);
    if (status != ReadStatus::Timeout) break;
  }
  const auto reject = [&](ErrorCode code, const std::string& message) {
    on_error();
    write_all(fd, encode_frame(MsgType::Error,
                               encode_error({0, code, message})));
    return false;
  };
  switch (status) {
    case ReadStatus::Ok: break;
    case ReadStatus::Oversized:
      return reject(ErrorCode::OversizedFrame,
                    "frame exceeds " + std::to_string(kMaxFrame) + " bytes");
    case ReadStatus::BadType:
      return reject(ErrorCode::BadFrame, "unknown message type");
    default: return false;  // silent, closed, torn or draining
  }
  if (frame.type != MsgType::Hello) {
    return reject(ErrorCode::BadFrame, "expected Hello");
  }
  const auto hello = decode_hello(frame.payload);
  if (!hello) {
    return reject(ErrorCode::VersionMismatch, "malformed Hello (bad magic)");
  }
  if (hello->version != kProtocolVersion) {
    return reject(ErrorCode::VersionMismatch,
                  "server speaks protocol version " +
                      std::to_string(kProtocolVersion) + ", client sent " +
                      std::to_string(hello->version));
  }
  const std::string reply =
      hello->minor >= 1
          ? encode_hello_ok(kProtocolVersion, kProtocolMinorVersion)
          : encode_hello_ok();
  if (!write_all(fd, encode_frame(MsgType::HelloOk, reply))) return false;
  // Both ends log their build stamp on Hello, so a mixed-version pair is
  // visible from either side's log alone.
  util::log_info(host.name() + ": handshake",
                 {{"peer", peer},
                  {"client_minor", hello->minor},
                  {"build", util::version_string()}});
  return true;
}

void install_drain_signals(int wake_fd, bool dump_on_usr1) {
  g_signal_wake_fd.store(wake_fd, std::memory_order_relaxed);
  install_handler(SIGTERM, on_drain_signal);
  install_handler(SIGINT, on_drain_signal);
  if (dump_on_usr1) install_handler(SIGUSR1, on_dump_signal);
}

}  // namespace intooa::svc
