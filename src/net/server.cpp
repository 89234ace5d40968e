#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <sys/epoll.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/buffer_pool.hpp"
#include "obs/journal.hpp"

namespace rlb::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::uint64_t make_token(std::size_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint64_t>(slot);
}

/// Per-connection drain buffers larger than this are returned to the
/// global pool (which frees oversized ones) when the connection closes,
/// so one slow consumer doesn't pin megabytes on an idle slot forever.
constexpr std::size_t kRetainCapacity = 64 * 1024;

void trim_buffer(std::vector<std::uint8_t>& buf) {
  buf.clear();
  if (buf.capacity() > kRetainCapacity) {
    global_buffer_pool().release(std::move(buf));
    buf = std::vector<std::uint8_t>();
  }
}

}  // namespace

struct NetServer::Impl {
  // Why a struct of atomics instead of ServerStats behind a mutex: every
  // field is a monotonic counter touched on the per-read / per-frame hot
  // path by exactly one writer class (loop thread or response senders).
  // Relaxed increments are enough — stats() reads each field relaxed and
  // the result is per-field exact, merely not a cross-field atomic cut.
  struct AtomicStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> requests_decoded{0};
    std::atomic<std::uint64_t> responses_sent{0};
    std::atomic<std::uint64_t> stats_requests{0};
    std::atomic<std::uint64_t> events_requests{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> slow_consumer_drops{0};
  };

  struct Conn {
    // ---- Loop-owned state: only the event-loop thread touches these.
    int fd = -1;
    FrameDecoder decoder;
    /// Drain pair: `front` is being written (from front_off), `back`
    /// overflows behind it.  writev() chains both in one syscall.
    std::vector<std::uint8_t> front;
    std::size_t front_off = 0;
    std::vector<std::uint8_t> back;

    // ---- Cross-thread surface.  stage_mu guards `staged` plus the
    // open/gen identity transitions, so a sender that observes open under
    // the lock cannot leak bytes into a recycled slot: close_conn flips
    // open/gen under the same lock before clearing staged.
    std::mutex stage_mu;
    std::vector<std::uint8_t> staged;
    bool open = false;
    std::uint32_t gen = 0;
    /// Clean->dirty edge triggers one self-pipe wake; the loop exchanges
    /// it back to false before splicing so no staging is ever missed.
    std::atomic<bool> stage_dirty{false};
  };

  ServerConfig config;
  RequestHandler on_request;
  RequestBatchHandler on_batch;
  StatsHandler on_stats;
  EventsHandler on_events;
  MigrateHandler on_migrate;
  MigrateDataHandler on_migrate_data;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  int epoll_fd = -1;
  std::thread loop_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};

  /// Fixed at start(): slots never reallocate, so sender threads can
  /// index without a container lock (per-slot stage_mu is the only one).
  std::vector<std::unique_ptr<Conn>> conns;
  /// Loop-private free-slot stack.
  std::vector<std::size_t> free_slots;

  AtomicStats stats;
  /// Outbound bytes accepted but not yet written (staged + front/back).
  /// Senders add under stage_mu; the loop subtracts what it writes or
  /// drops.  Drives the graceful-stop flush without scanning conns.
  std::atomic<std::int64_t> pending_out{0};
  /// True only while the loop is (about to be) blocked in epoll_wait.
  /// Senders skip the wake-pipe syscall when the loop is awake anyway —
  /// under load that removes a write+read syscall pair per splice cycle.
  /// Dekker pairing (both seq_cst): the sender stores stage_dirty then
  /// loads loop_asleep; the loop stores loop_asleep then re-scans
  /// stage_dirty before sleeping, so a staged response is either seen by
  /// that final scan or its sender sees loop_asleep and wakes the pipe.
  std::atomic<bool> loop_asleep{false};

  // Event-loop-private scratch.
  std::vector<ServerRequest> batch;

  void wake() {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  bool loop_open(std::size_t slot) const { return conns[slot]->fd >= 0; }

  void close_conn(std::size_t slot) {
    Conn& conn = *conns[slot];
    if (conn.fd < 0) return;
    std::int64_t dropped = 0;
    {
      std::lock_guard lock(conn.stage_mu);
      conn.open = false;
      ++conn.gen;
      dropped += static_cast<std::int64_t>(conn.staged.size());
      trim_buffer(conn.staged);
    }
    conn.stage_dirty.store(false, std::memory_order_relaxed);
    dropped += static_cast<std::int64_t>(conn.front.size() - conn.front_off) +
               static_cast<std::int64_t>(conn.back.size());
    if (dropped != 0) pending_out.fetch_sub(dropped, std::memory_order_relaxed);
    ::close(conn.fd);  // also deregisters from epoll
    conn.fd = -1;
    trim_buffer(conn.front);
    conn.front_off = 0;
    trim_buffer(conn.back);
    conn.decoder.reset();
    free_slots.push_back(slot);
    stats.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;
      }
      if (free_slots.empty()) {
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (config.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf,
                     sizeof(config.sndbuf));
      }
      const std::size_t slot = free_slots.back();
      free_slots.pop_back();
      Conn& conn = *conns[slot];
      conn.fd = fd;
      conn.front_off = 0;
      {
        std::lock_guard lock(conn.stage_mu);
        conn.staged.clear();
        conn.open = true;
      }
      conn.stage_dirty.store(false, std::memory_order_relaxed);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      ev.data.u64 = static_cast<std::uint64_t>(slot);
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close_conn(slot);
        continue;
      }
      stats.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void flush_batch() {
    if (batch.empty()) return;
    on_batch(batch.data(), batch.size());
    batch.clear();
  }

  /// Drain readable bytes, reassemble frames, dispatch requests.  Returns
  /// false when the connection must close (EOF, error, protocol violation).
  bool read_ready(std::size_t slot) {
    Conn& conn = *conns[slot];
    bool keep = true;
    std::uint8_t buffer[16384];
    while (keep) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n == 0) {  // clean EOF
        keep = false;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        keep = false;
        break;
      }
      stats.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
      if (!conn.decoder.feed(buffer, static_cast<std::size_t>(n))) {
        stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        keep = false;
        break;
      }
      const std::uint64_t token = make_token(slot, conn.gen);
      FrameView payload;
      while (conn.decoder.next_view(payload)) {
        RequestMsg request;
        ResponseMsg response;
        StatsRequestMsg stats_request;
        EventsRequestMsg events_request;
        const Decoded decoded =
            decode_payload(payload.data, payload.size, request, response,
                           stats_request, events_request);
        if (decoded == Decoded::kRequest) {
          stats.requests_decoded.fetch_add(1, std::memory_order_relaxed);
          if (on_batch) {
            batch.push_back(ServerRequest{token, request});
          } else {
            on_request(token, request);
          }
          continue;
        }
        // Admin frames are rare; flush buffered requests first so the
        // per-connection order (requests before a subsequent admin frame)
        // is preserved for the handler.
        flush_batch();
        if (decoded == Decoded::kStats && on_stats) {
          stats.stats_requests.fetch_add(1, std::memory_order_relaxed);
          on_stats(token, stats_request);
          continue;
        }
        if (decoded == Decoded::kEvents && on_events) {
          stats.events_requests.fetch_add(1, std::memory_order_relaxed);
          on_events(token, events_request);
          continue;
        }
        if (decoded == Decoded::kMigrate && on_migrate) {
          MigrateMsg migrate;
          if (!decode_migrate(payload.data, payload.size, migrate)) {
            stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
            keep = false;
            break;
          }
          on_migrate(token, migrate);
          continue;
        }
        if (decoded == Decoded::kMigrateData && on_migrate_data) {
          MigrateDataMsg data;
          if (!decode_migrate_data(payload.data, payload.size, data)) {
            stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
            keep = false;
            break;
          }
          on_migrate_data(token, data);
          continue;
        }
        // Clients may only send REQUEST frames (plus STATS/EVENTS/MIGRATE
        // when the daemon installed an admin handler).
        stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        keep = false;
        break;
      }
      if (keep && conn.decoder.error()) {
        stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        keep = false;
      }
    }
    flush_batch();
    return keep;
  }

  /// writev() the loop-owned drain pair until empty or EAGAIN.  Never
  /// holds a lock.  Returns false on a fatal write error.
  bool flush_writes(std::size_t slot) {
    Conn& conn = *conns[slot];
    while (conn.front_off < conn.front.size() || !conn.back.empty()) {
      if (conn.front_off == conn.front.size()) {
        conn.front.clear();
        conn.front_off = 0;
        conn.front.swap(conn.back);
      }
      iovec iov[2];
      int iov_count = 1;
      iov[0].iov_base = conn.front.data() + conn.front_off;
      iov[0].iov_len = conn.front.size() - conn.front_off;
      if (!conn.back.empty()) {
        iov[1].iov_base = conn.back.data();
        iov[1].iov_len = conn.back.size();
        iov_count = 2;
      }
      // sendmsg instead of writev purely for MSG_NOSIGNAL: a mid-write
      // disconnect must surface as EPIPE, not SIGPIPE.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iov_count);
      const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      stats.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      pending_out.fetch_sub(n, std::memory_order_relaxed);
      std::size_t advance = static_cast<std::size_t>(n);
      const std::size_t front_remaining = conn.front.size() - conn.front_off;
      if (advance >= front_remaining) {
        advance -= front_remaining;
        conn.front.clear();
        conn.front.swap(conn.back);
        conn.front_off = advance;
      } else {
        conn.front_off += advance;
      }
    }
    return true;
  }

  /// Splice staged bytes into the drain pair (vector swap when possible),
  /// enforce the slow-consumer cap, then flush.  Returns false when the
  /// connection must close.
  bool service_outbound(std::size_t slot) {
    Conn& conn = *conns[slot];
    if (conn.stage_dirty.exchange(false, std::memory_order_acq_rel)) {
      std::lock_guard lock(conn.stage_mu);
      if (!conn.staged.empty()) {
        if (conn.front.empty()) {
          conn.front_off = 0;
          conn.front.swap(conn.staged);
        } else if (conn.back.empty()) {
          conn.back.swap(conn.staged);
        } else {
          conn.back.insert(conn.back.end(), conn.staged.begin(),
                           conn.staged.end());
          conn.staged.clear();
        }
      }
    }
    const std::size_t queued =
        (conn.front.size() - conn.front_off) + conn.back.size();
    if (config.max_outbound_bytes > 0 && queued > config.max_outbound_bytes) {
      stats.slow_consumer_drops.fetch_add(1, std::memory_order_relaxed);
      obs::Journal::instance().append(obs::JournalType::kSlowConsumer,
                                      static_cast<std::uint64_t>(slot),
                                      static_cast<std::uint64_t>(queued));
      return false;
    }
    return flush_writes(slot);
  }

  /// Post-events pass: splice/flush every connection flagged dirty by a
  /// sender since the last pass.
  void service_dirty() {
    for (std::size_t slot = 0; slot < conns.size(); ++slot) {
      Conn& conn = *conns[slot];
      if (conn.fd < 0) continue;
      if (!conn.stage_dirty.load(std::memory_order_relaxed)) continue;
      if (!service_outbound(slot)) close_conn(slot);
    }
  }

  void drain_wake_pipe() {
    std::uint8_t drain[256];
    while (::read(wake_read, drain, sizeof(drain)) > 0) {
    }
  }

  /// Publish intent to sleep, then re-scan dirty flags (see loop_asleep).
  /// Returns the epoll_wait timeout to use: 0 when staged output is
  /// already waiting, the idle timeout otherwise.
  int arm_sleep(int idle_timeout_ms) {
    loop_asleep.store(true, std::memory_order_seq_cst);
    for (const auto& conn : conns) {
      if (conn->fd >= 0 &&
          conn->stage_dirty.load(std::memory_order_relaxed)) {
        loop_asleep.store(false, std::memory_order_relaxed);
        return 0;
      }
    }
    return idle_timeout_ms;
  }

  void handle_conn_event(std::size_t slot, bool had_error, bool writable,
                         bool readable) {
    if (!loop_open(slot)) return;
    bool ok = !had_error;
    if (ok && writable) ok = service_outbound(slot);
    if (ok && readable) ok = read_ready(slot);
    if (!ok) close_conn(slot);
  }

  void run_loop() {
    constexpr std::uint64_t kWakeTag = UINT64_MAX;
    constexpr std::uint64_t kListenTag = UINT64_MAX - 1;
    std::vector<epoll_event> events(512);
    while (running.load(std::memory_order_acquire)) {
      const bool draining = stopping.load(std::memory_order_acquire);
      if (draining && pending_out.load(std::memory_order_acquire) <= 0) break;
      const int timeout = arm_sleep(100);
      const int ready = ::epoll_wait(epoll_fd, events.data(),
                                     static_cast<int>(events.size()), timeout);
      loop_asleep.store(false, std::memory_order_seq_cst);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < ready; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.u64 == kWakeTag) {
          drain_wake_pipe();
          continue;
        }
        if (ev.data.u64 == kListenTag) {
          if (!draining) accept_ready();
          continue;
        }
        const auto slot = static_cast<std::size_t>(ev.data.u64);
        handle_conn_event(slot,
                          (ev.events & EPOLLERR) != 0,
                          (ev.events & EPOLLOUT) != 0,
                          (ev.events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP)) != 0);
      }
      service_dirty();
    }
    close_all();
  }

  void close_all() {
    for (std::size_t slot = 0; slot < conns.size(); ++slot) {
      if (loop_open(slot)) close_conn(slot);
    }
  }
};

NetServer::NetServer(const ServerConfig& config, RequestHandler on_request)
    : impl_(new Impl) {
  impl_->config = config;
  impl_->on_request = std::move(on_request);
}

NetServer::~NetServer() {
  stop(0);
  delete impl_;
}

void NetServer::start() {
  if (impl_->running.load()) return;
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    throw std::runtime_error("NetServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->config.port);
  if (::inet_pton(AF_INET, impl_->config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::runtime_error("NetServer: bad host '" + impl_->config.host +
                             "'");
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::runtime_error("NetServer: bind failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(impl_->listen_fd, 128) != 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::runtime_error("NetServer: listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(impl_->listen_fd);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::runtime_error("NetServer: pipe failed");
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);

  // Fixed slot table: tokens index it lock-free, so it must never grow.
  if (impl_->conns.empty()) {
    impl_->conns.reserve(impl_->config.max_connections);
    for (std::size_t i = 0; i < impl_->config.max_connections; ++i) {
      impl_->conns.push_back(std::make_unique<Impl::Conn>());
    }
  }
  impl_->free_slots.clear();
  for (std::size_t i = impl_->conns.size(); i > 0; --i) {
    impl_->free_slots.push_back(i - 1);
  }

  impl_->epoll_fd = ::epoll_create1(0);
  if (impl_->epoll_fd < 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    ::close(impl_->wake_read);
    ::close(impl_->wake_write);
    impl_->wake_read = impl_->wake_write = -1;
    throw std::runtime_error("NetServer: epoll_create1 failed");
  }
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN | EPOLLET;
  wake_ev.data.u64 = UINT64_MAX;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->wake_read, &wake_ev);
  epoll_event listen_ev{};
  listen_ev.events = EPOLLIN | EPOLLET;
  listen_ev.data.u64 = UINT64_MAX - 1;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &listen_ev);

  impl_->running.store(true, std::memory_order_release);
  impl_->stopping.store(false, std::memory_order_release);
  impl_->loop_thread = std::thread([this] { impl_->run_loop(); });
}

void NetServer::stop(std::uint64_t flush_timeout_ms) {
  if (!impl_->running.load()) return;
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  // Give the loop its flush window, then force it down.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(flush_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (impl_->pending_out.load(std::memory_order_acquire) <= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  impl_->running.store(false, std::memory_order_release);
  impl_->wake();
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  if (impl_->wake_read >= 0) {
    ::close(impl_->wake_read);
    ::close(impl_->wake_write);
    impl_->wake_read = impl_->wake_write = -1;
  }
  if (impl_->epoll_fd >= 0) {
    ::close(impl_->epoll_fd);
    impl_->epoll_fd = -1;
  }
}

bool NetServer::send_response(std::uint64_t conn_token,
                              const ResponseMsg& response) {
  const std::size_t slot = static_cast<std::size_t>(conn_token & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(conn_token >> 32);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen) return false;
    const std::size_t before = conn.staged.size();
    encode_response(response, conn.staged);
    impl_->pending_out.fetch_add(
        static_cast<std::int64_t>(conn.staged.size() - before),
        std::memory_order_relaxed);
  }
  impl_->stats.responses_sent.fetch_add(1, std::memory_order_relaxed);
  // Only the clean -> dirty edge needs a wake (the loop re-arms the flag
  // before splicing), and only when the loop is actually blocked — an
  // awake loop re-scans dirty flags before its next sleep (seq_cst
  // pairing documented at loop_asleep).
  if (!conn.stage_dirty.exchange(true, std::memory_order_seq_cst) &&
      impl_->loop_asleep.load(std::memory_order_seq_cst)) {
    impl_->wake();
  }
  return true;
}

void NetServer::set_request_batch_handler(RequestBatchHandler on_batch) {
  impl_->on_batch = std::move(on_batch);
}

void NetServer::set_stats_handler(StatsHandler on_stats) {
  impl_->on_stats = std::move(on_stats);
}

bool NetServer::send_stats(std::uint64_t conn_token,
                           const StatsSnapshot& snapshot) {
  std::vector<std::uint8_t> payload = global_buffer_pool().acquire();
  encode_stats_payload(snapshot, payload);
  const std::size_t slot = static_cast<std::size_t>(conn_token & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(conn_token >> 32);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen) return false;
    const std::size_t before = conn.staged.size();
    if (!encode_stats_response_frame(payload, conn.staged)) return false;
    impl_->pending_out.fetch_add(
        static_cast<std::int64_t>(conn.staged.size() - before),
        std::memory_order_relaxed);
  }
  global_buffer_pool().release(std::move(payload));
  if (!conn.stage_dirty.exchange(true, std::memory_order_seq_cst) &&
      impl_->loop_asleep.load(std::memory_order_seq_cst)) {
    impl_->wake();
  }
  return true;
}

void NetServer::set_events_handler(EventsHandler on_events) {
  impl_->on_events = std::move(on_events);
}

bool NetServer::send_events(std::uint64_t conn_token,
                            const EventsSnapshot& snapshot) {
  std::vector<std::uint8_t> payload = global_buffer_pool().acquire();
  encode_events_payload(snapshot, payload);
  const std::size_t slot = static_cast<std::size_t>(conn_token & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(conn_token >> 32);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen) return false;
    const std::size_t before = conn.staged.size();
    if (!encode_events_response_frame(payload, conn.staged)) return false;
    impl_->pending_out.fetch_add(
        static_cast<std::int64_t>(conn.staged.size() - before),
        std::memory_order_relaxed);
  }
  global_buffer_pool().release(std::move(payload));
  if (!conn.stage_dirty.exchange(true, std::memory_order_seq_cst) &&
      impl_->loop_asleep.load(std::memory_order_seq_cst)) {
    impl_->wake();
  }
  return true;
}

void NetServer::set_migrate_handler(MigrateHandler on_migrate) {
  impl_->on_migrate = std::move(on_migrate);
}

void NetServer::set_migrate_data_handler(MigrateDataHandler on_migrate_data) {
  impl_->on_migrate_data = std::move(on_migrate_data);
}

bool NetServer::send_migrate_ack(std::uint64_t conn_token,
                                 const MigrateAckMsg& ack) {
  const std::size_t slot = static_cast<std::size_t>(conn_token & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(conn_token >> 32);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen) return false;
    const std::size_t before = conn.staged.size();
    encode_migrate_ack(ack, conn.staged);
    impl_->pending_out.fetch_add(
        static_cast<std::int64_t>(conn.staged.size() - before),
        std::memory_order_relaxed);
  }
  if (!conn.stage_dirty.exchange(true, std::memory_order_seq_cst) &&
      impl_->loop_asleep.load(std::memory_order_seq_cst)) {
    impl_->wake();
  }
  return true;
}

ServerStats NetServer::stats() const {
  const Impl::AtomicStats& a = impl_->stats;
  ServerStats out;
  out.connections_accepted =
      a.connections_accepted.load(std::memory_order_relaxed);
  out.connections_closed = a.connections_closed.load(std::memory_order_relaxed);
  out.protocol_errors = a.protocol_errors.load(std::memory_order_relaxed);
  out.requests_decoded = a.requests_decoded.load(std::memory_order_relaxed);
  out.responses_sent = a.responses_sent.load(std::memory_order_relaxed);
  out.stats_requests = a.stats_requests.load(std::memory_order_relaxed);
  out.events_requests = a.events_requests.load(std::memory_order_relaxed);
  out.bytes_in = a.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = a.bytes_out.load(std::memory_order_relaxed);
  out.slow_consumer_drops =
      a.slow_consumer_drops.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rlb::net
