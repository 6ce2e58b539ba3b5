#include "svc/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "core/bytes.hpp"
#include "host/parallel_runner.hpp"
#include "obs/metrics.hpp"
#include "sim/error.hpp"
#include "svc/ref_cache.hpp"

namespace offramps::svc {

namespace {

// ---------------------------------------------------------------------
// Shared reference resolution: one compute per content digest per
// process.  The first session to ask for a digest computes (cache read,
// else simulate + cache write) while later askers block on the slot's
// condition variable - so a 16-rig campaign over one object runs the
// reference phase exactly once no matter how sessions interleave.

class ReferenceResolver {
 public:
  explicit ReferenceResolver(const ServiceOptions& options)
      : options_(options), session_(options.session(options.channels)) {
    if (!options_.cache_dir.empty()) {
      cache_ = std::make_unique<RefCache>(
          RefCacheOptions{options_.cache_dir, options_.cache_max_bytes});
    }
  }

  /// Every session is judged like the live campaign.
  [[nodiscard]] const SessionOptions& session_options() const {
    return session_;
  }

  /// A session's reference callback: resolves here and arms exactly like
  /// Fleet does (Reference::refs).  Side channels need no switch - a
  /// disabled group is never instantiated, and an empty golden trace
  /// leaves its channel unarmed.
  RigSession::ResolveRefs refs() {
    return [this](const core::wire::SessionHello& hello) {
      return resolve(hello.cube_mm, hello.height_mm)
          .refs(options_.use_oracle);
    };
  }

  /// Returns the references for one object geometry; throws
  /// offramps::Error when the reference cannot be produced (and replays
  /// that error to every waiter of the same digest).
  const Reference& resolve(double cube_mm, double height_mm) {
    const std::uint64_t key =
        reference_digest(cube_mm, height_mm, options_.profile,
                         options_.reference_seed, options_.channels);
    Slot* slot = nullptr;
    bool owner = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      auto& p = slots_[key];
      if (!p) {
        p = std::make_unique<Slot>();
        owner = true;
      }
      slot = p.get();
      if (!owner) {
        cv_.wait(lk, [&] { return slot->done; });
        if (slot->failed) throw Error(slot->error);
        return slot->data;
      }
    }
    try {
      Reference r = compute(cube_mm, height_mm, key);
      r.set_means(options_.detector);
      std::lock_guard<std::mutex> lk(mu_);
      slot->data = std::move(r);
      slot->done = true;
      cv_.notify_all();
      return slot->data;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu_);
      slot->failed = true;
      slot->error = std::string("reference: ") + e.what();
      slot->done = true;
      cv_.notify_all();
      throw Error(slot->error);
    }
  }

 private:
  struct Slot {
    bool done = false;
    bool failed = false;
    std::string error;
    Reference data;
  };

  Reference compute(double cube_mm, double height_mm, std::uint64_t key) {
    Reference r = Reference::slice(cube_mm, height_mm, options_.profile);
    if (cache_) {
      if (auto hit = cache_->get(key)) {
        r.entry = std::move(*hit);
        return r;
      }
    }
    if (obs::enabled()) {
      obs::Registry::instance().counter("svc.ref.simulations").add(1);
    }
    r.print(options_, options_.channels, SupervisorOptions{}, "reference");
    if (cache_) cache_->put(key, r.entry);
    return r;
  }

  ServiceOptions options_;
  SessionOptions session_;
  std::unique_ptr<RefCache> cache_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::unique_ptr<Slot>> slots_;
};

// ---------------------------------------------------------------------
// Report assembly.  Arrival order is wall-clock nondeterministic (socket
// accepts race), so the report sorts by the rig's *campaign* identity:
// hello-bearing sessions by their recorded rig index, then name; hello-
// less wrecks after them by label, with arrival as the final tiebreak.

struct SessionResult {
  RigOutcome outcome;
  bool has_hello = false;
  std::uint32_t rig_index = 0;
  std::string label;
  double seconds = 0.0;
  std::size_t arrival = 0;
};

FleetReport assemble_report(std::vector<SessionResult> results) {
  std::sort(results.begin(), results.end(),
            [](const SessionResult& a, const SessionResult& b) {
              if (a.has_hello != b.has_hello) return a.has_hello;
              if (a.rig_index != b.rig_index) {
                return a.rig_index < b.rig_index;
              }
              if (a.outcome.spec.name != b.outcome.spec.name) {
                return a.outcome.spec.name < b.outcome.spec.name;
              }
              return a.arrival < b.arrival;
            });
  FleetReport report;
  report.complete = true;
  report.rigs.reserve(results.size());
  report.timings.reserve(results.size());
  for (auto& r : results) {
    report.timings.push_back({"session/" + r.label, r.seconds});
    report.rigs.push_back(std::move(r.outcome));
  }
  return report;
}

struct DaemonStats {
  obs::Counter* joins;
  obs::Counter* leaves;
  obs::Gauge* sessions;
  obs::Histogram* session_us;
};

DaemonStats& daemon_stats() {
  static DaemonStats s{
      &obs::Registry::instance().counter("svc.daemon.joins"),
      &obs::Registry::instance().counter("svc.daemon.leaves"),
      &obs::Registry::instance().gauge("svc.daemon.sessions"),
      &obs::Registry::instance().histogram("svc.daemon.session_us",
                                           obs::latency_buckets_us())};
  return s;
}

/// Registers every daemon-path instrument up front so a campaign that
/// never touches one (e.g. a fully-warm cache: zero simulations) still
/// exports it, with value 0 - the acceptance check greps for exactly
/// that.
void register_service_metrics() {
  if (!obs::enabled()) return;
  obs::Registry::instance().counter("svc.ref.simulations");
  obs::Registry::instance().counter("svc.cache.hit");
  obs::Registry::instance().counter("svc.cache.miss");
  obs::Registry::instance().counter("svc.cache.evict");
  obs::Registry::instance().counter("svc.cache.rejected");
  daemon_stats();
}

void fill_result(SessionResult& item, RigSession& session) {
  if (session.has_hello()) {
    item.has_hello = true;
    item.rig_index = session.hello().rig_index;
    item.label = session.hello().name;
  }
  item.outcome = session.outcome();
  if (!item.has_hello && item.outcome.spec.name.empty()) {
    item.outcome.spec.name = item.label;
  }
}

// ---------------------------------------------------------------------
// Stop signal plumbing.  The handler only flips a flag and pokes a
// self-pipe so the poll() loop wakes without races; sigaction state is
// saved/restored so the daemon leaves the process as it found it.

volatile std::sig_atomic_t g_stop = 0;
int g_wake_fd = -1;

void handle_stop_signal(int) {
  g_stop = 1;
  const int fd = g_wake_fd;
  if (fd >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct SignalGuard {
  SignalGuard() {
    g_stop = 0;
    struct sigaction sa{};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term_);
    ::sigaction(SIGINT, &sa, &old_int_);
  }
  ~SignalGuard() {
    ::sigaction(SIGTERM, &old_term_, nullptr);
    ::sigaction(SIGINT, &old_int_, nullptr);
    g_wake_fd = -1;
  }

 private:
  struct sigaction old_term_{};
  struct sigaction old_int_{};
};

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

// ---------------------------------------------------------------------
// Offline replay.

FleetReport replay_corpus(const std::string& corpus_dir,
                          const ReplayOptions& options) {
  const std::vector<std::string> files =
      core::wire::list_session_corpus(corpus_dir);
  if (files.empty()) {
    throw Error("replay: no .ofs session streams under " + corpus_dir);
  }
  for (const auto& [index, spec] : options.chaos) {
    if (spec.enabled() && !host::session_drill(spec.kind)) {
      throw Error("replay: a recorded session does not perform chaos '" +
                  spec.to_string() + "' (disconnect|framecorrupt)");
    }
    if (index >= files.size()) {
      throw Error("replay: chaos index " + std::to_string(index) +
                  " out of range (" + std::to_string(files.size()) +
                  " session files)");
    }
  }
  register_service_metrics();

  host::ParallelRunner pool(options.service.workers);
  ReferenceResolver resolver(options.service);

  std::vector<SessionResult> results =
      pool.map<SessionResult>(files.size(), [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        SessionResult item;
        item.arrival = i;
        item.label = std::filesystem::path(files[i]).stem().string();
        try {
          std::vector<std::uint8_t> bytes =
              core::read_file(files[i], "replay");
          for (const auto& [index, spec] : options.chaos) {
            if (index == i) {
              host::ChaosInjector(spec, 0).mangle_session(bytes);
            }
          }
          RigSession session(resolver.session_options(), resolver.refs());
          session.feed(bytes.data(), bytes.size());
          session.close();
          fill_result(item, session);
        } catch (const std::exception& e) {
          item.outcome = RigOutcome{};
          item.outcome.spec.name = item.label;
          item.outcome.status = RigStatus::kLost;
          item.outcome.attempts = 0;
          item.outcome.failure_cause = std::string("replay: ") + e.what();
        }
        item.seconds = obs::us_since(t0) / 1e6;
        return item;
      });
  return assemble_report(std::move(results));
}

// ---------------------------------------------------------------------
// Daemon.

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  register_service_metrics();
}

FleetReport Daemon::serve() {
  if (options_.socket_path.empty() || options_.socket_path == "-") {
    return serve_stdin();
  }
  return serve_socket();
}

FleetReport Daemon::serve_socket() {
  const std::string& path = options_.socket_path;
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("daemon: socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A stale socket from a previous run is replaced; any other file at
  // the path is not ours to delete.
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw Error("daemon: " + path + " exists and is not a socket");
    }
    ::unlink(path.c_str());
  }

  FdCloser listener{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (listener.fd < 0) {
    throw Error(std::string("daemon: socket(): ") + std::strerror(errno));
  }
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw Error("daemon: bind(" + path + "): " + std::strerror(errno));
  }
  if (::listen(listener.fd, 64) < 0) {
    throw Error("daemon: listen(" + path + "): " + std::strerror(errno));
  }
  ::fcntl(listener.fd, F_SETFL, O_NONBLOCK);

  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    throw Error(std::string("daemon: pipe(): ") + std::strerror(errno));
  }
  FdCloser wake_rd{wake[0]};
  FdCloser wake_wr{wake[1]};
  ::fcntl(wake[0], F_SETFL, O_NONBLOCK);
  g_wake_fd = wake[1];
  SignalGuard signals;

  host::ParallelRunner pool(options_.service.workers);
  ReferenceResolver resolver(options_.service);

  std::mutex results_mu;
  std::vector<SessionResult> results;
  std::atomic<std::int64_t> inflight{0};

  // One posted job per accepted connection.  The read loop feeds the
  // session synchronously, so a slow detector simply stops reading and
  // the kernel socket buffer stalls the producer - the wire extension of
  // the SPSC backpressure contract.
  const auto run_session = [&](int fd, std::size_t seq) {
    FdCloser conn{fd};
    const auto t0 = std::chrono::steady_clock::now();
    if (obs::enabled()) {
      daemon_stats().joins->add(1);
      daemon_stats().sessions->set(++inflight);
    }
    SessionResult item;
    item.arrival = seq;
    item.label = "conn-" + std::to_string(seq);
    {
      RigSession session(resolver.session_options(), resolver.refs());
      std::vector<std::uint8_t> buf(1 << 16);
      while (!session.done()) {
        const ssize_t n = ::read(fd, buf.data(), buf.size());
        if (n < 0) {
          if (errno == EINTR) continue;
          break;  // close() below classifies the disconnect
        }
        if (n == 0) break;
        session.feed(buf.data(), static_cast<std::size_t>(n));
      }
      session.close();
      fill_result(item, session);
    }
    const char ack = item.outcome.status == RigStatus::kLost  ? 'E'
                     : item.outcome.detector.alarmed          ? 'A'
                                                              : 'C';
    [[maybe_unused]] const ssize_t sent =
        ::send(fd, &ack, 1, MSG_NOSIGNAL);  // best effort
    item.seconds = obs::us_since(t0) / 1e6;
    if (obs::enabled()) {
      daemon_stats().leaves->add(1);
      daemon_stats().sessions->set(--inflight);
      daemon_stats().session_us->observe(item.seconds * 1e6);
    }
    std::lock_guard<std::mutex> lk(results_mu);
    results.push_back(std::move(item));
  };

  std::size_t accepted = 0;
  const auto accept_pending = [&] {
    while (true) {
      const int fd = ::accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: backlog drained
      }
      const std::size_t seq = accepted++;
      pool.post([&run_session, fd, seq] { run_session(fd, seq); });
    }
  };

  while (g_stop == 0) {
    pollfd fds[2] = {{listener.fd, POLLIN, 0}, {wake[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (g_stop != 0) break;
    if ((fds[0].revents & POLLIN) != 0) accept_pending();
  }

  // Drain: clients already in the backlog raced the signal - accept and
  // finish them too, then wait for every in-flight session before the
  // report freezes.
  accept_pending();
  ::close(listener.fd);
  listener.fd = -1;
  ::unlink(path.c_str());
  pool.drain();
  return assemble_report(std::move(results));
}

FleetReport Daemon::serve_stdin() {
  SignalGuard signals;  // no wake pipe: the EINTR return from read()
                        // is the wake-up in pipe mode
  ReferenceResolver resolver(options_.service);

  std::vector<SessionResult> results;
  std::size_t seq = 0;
  std::unique_ptr<RigSession> session;
  auto t0 = std::chrono::steady_clock::now();

  const auto finalize = [&] {
    if (!session) return;
    session->close();
    SessionResult item;
    item.arrival = seq++;
    item.label = "pipe-" + std::to_string(item.arrival);
    fill_result(item, *session);
    item.seconds = obs::us_since(t0) / 1e6;
    if (obs::enabled()) {
      daemon_stats().leaves->add(1);
      daemon_stats().session_us->observe(item.seconds * 1e6);
    }
    results.push_back(std::move(item));
    session.reset();
  };

  // Concatenated streams ride one pipe: feed() hands back the bytes past
  // a kEnd and they seed the next session.  A stream that fails outright
  // (bad header, mid-frame garbage that never resyncs) has no recoverable
  // end marker, so it swallows the rest of the pipe - by design: a pipe
  // is one producer, and a producer that garbles its framing is lost.
  std::vector<std::uint8_t> buf(1 << 16);
  while (g_stop == 0) {
    const ssize_t n = ::read(STDIN_FILENO, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: the fleet of producers is done
    const std::size_t got = static_cast<std::size_t>(n);
    std::size_t off = 0;
    while (off < got) {
      if (!session) {
        session = std::make_unique<RigSession>(resolver.session_options(),
                                               resolver.refs());
        t0 = std::chrono::steady_clock::now();
        if (obs::enabled()) daemon_stats().joins->add(1);
      }
      const std::size_t used = session->feed(buf.data() + off, got - off);
      off += used;
      // feed() is short only at kEnd (an ended session returns 0 for
      // further bytes), so leftover input means "next stream starts
      // here".  A terminally *failed* session instead consumes
      // everything, swallowing the rest of its pipe until EOF.
      if (used == 0 || (session->done() && off < got)) finalize();
    }
  }
  finalize();  // EOF or signal mid-session: classified as a disconnect
  return assemble_report(std::move(results));
}

int Daemon::stream_file(const std::string& socket_path,
                        const std::string& file) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = core::read_file(file, "join");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "join: socket path too long: %s\n",
                 socket_path.c_str());
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  FdCloser sock{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (sock.fd < 0 ||
      ::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    std::fprintf(stderr, "join: cannot connect to %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    return 1;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(sock.fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "join: send to %s failed: %s\n",
                   socket_path.c_str(), std::strerror(errno));
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(sock.fd, SHUT_WR);
  char ack = 0;
  ssize_t r = 0;
  do {
    r = ::read(sock.fd, &ack, 1);
  } while (r < 0 && errno == EINTR);
  if (r != 1) {
    std::fprintf(stderr, "join: no verdict ack from %s\n",
                 socket_path.c_str());
    return 1;
  }
  std::printf("%s: %s\n", file.c_str(),
              ack == 'C'   ? "clean"
              : ack == 'A' ? "alarm"
                           : "lost");
  return (ack == 'C' || ack == 'A') ? 0 : 1;
}

}  // namespace offramps::svc
