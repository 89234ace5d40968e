#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/reactor.hpp"
#include "obs/histogram.hpp"

namespace rlb::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct NetServer::Impl final : ConnHandler {
  // Why a struct of atomics instead of ServerStats behind a mutex: every
  // field is a monotonic counter that stats() reads relaxed from any
  // thread, per-field exact, merely not a cross-field atomic cut.  The loop
  // thread is the only writer of all but responses_sent, so those take
  // obs::bump (a relaxed load and store); responses_sent keeps fetch_add
  // because responses are also sent from other threads (an engine's own
  // thread answering a paced or frozen-clock tick).  bytes_in / bytes_out
  // are the ConnHandler counters the reactor bumps.
  struct AtomicStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> requests_decoded{0};
    std::atomic<std::uint64_t> responses_sent{0};
    std::atomic<std::uint64_t> stats_requests{0};
    std::atomic<std::uint64_t> events_requests{0};
    std::atomic<std::uint64_t> slow_consumer_drops{0};
  };

  explicit Impl(const ServerConfig& cfg)
      : config(cfg), reactor(cfg.max_connections, cfg.max_outbound_bytes) {}

  ServerConfig config;
  RequestHandler on_request;
  RequestBatchHandler on_batch;
  StatsHandler on_stats;
  EventsHandler on_events;
  MigrateHandler on_migrate;
  MigrateDataHandler on_migrate_data;

  Reactor reactor;
  int listen_fd = -1;
  AtomicStats stats;
  // Loop-private scratch.
  std::vector<ServerRequest> batch;

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, or nothing acceptable right now
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (config.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf,
                     sizeof(config.sndbuf));
      }
      // A full slot table closes the socket: the connection cap.
      if (reactor.add(fd, this, Reactor::Kind::kAccepted) != 0) {
        obs::bump(stats.connections_accepted);
      }
    }
  }

  void flush_batch() {
    if (batch.empty()) return;
    on_batch(batch.data(), batch.size());
    batch.clear();
  }

  bool protocol_error() {
    obs::bump(stats.protocol_errors);
    return false;
  }

  bool on_frame(std::uint64_t token, const FrameView& payload) override {
    RequestMsg request;
    ResponseMsg response;
    StatsRequestMsg stats_request;
    EventsRequestMsg events_request;
    const Decoded decoded =
        decode_payload(payload.data, payload.size, request, response,
                       stats_request, events_request);
    if (decoded == Decoded::kRequest) {
      obs::bump(stats.requests_decoded);
      if (on_batch) {
        batch.push_back(ServerRequest{token, request});
      } else {
        on_request(token, request);
      }
      return true;
    }
    // Admin frames are rare; flush buffered requests first so the
    // per-connection order (requests before a subsequent admin frame) is
    // preserved for the handler.
    flush_batch();
    if (decoded == Decoded::kStats && on_stats) {
      obs::bump(stats.stats_requests);
      on_stats(token, stats_request);
      return true;
    }
    if (decoded == Decoded::kEvents && on_events) {
      obs::bump(stats.events_requests);
      on_events(token, events_request);
      return true;
    }
    if (decoded == Decoded::kMigrate && on_migrate) {
      MigrateMsg migrate;
      if (!decode_migrate(payload.data, payload.size, migrate)) {
        return protocol_error();
      }
      on_migrate(token, migrate);
      return true;
    }
    if (decoded == Decoded::kMigrateData && on_migrate_data) {
      MigrateDataMsg data;
      if (!decode_migrate_data(payload.data, payload.size, data)) {
        return protocol_error();
      }
      on_migrate_data(token, data);
      return true;
    }
    // Clients may only send REQUEST frames (plus STATS/EVENTS/MIGRATE when
    // the daemon installed an admin handler).
    return protocol_error();
  }

  void on_read_end() override { flush_batch(); }

  void on_close(std::uint64_t, CloseCause cause) override {
    if (cause == CloseCause::kProtocol) protocol_error();
    if (cause == CloseCause::kSlowConsumer) {
      obs::bump(stats.slow_consumer_drops);
    }
    obs::bump(stats.connections_closed);
  }
};

NetServer::NetServer(const ServerConfig& config, RequestHandler on_request)
    : impl_(new Impl(config)) {
  impl_->on_request = std::move(on_request);
}

NetServer::~NetServer() {
  stop(0);
  delete impl_;
}

void NetServer::start() {
  if (impl_->listen_fd >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("NetServer: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->config.port);
  if (::inet_pton(AF_INET, impl_->config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("NetServer: bad host '" + impl_->config.host +
                             "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("NetServer: bind failed: " + reason);
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    throw std::runtime_error("NetServer: listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd);
  impl_->listen_fd = fd;
  impl_->reactor.watch(fd, [this] { impl_->accept_ready(); });
  impl_->reactor.start();
}

void NetServer::stop(std::uint64_t flush_timeout_ms) {
  impl_->reactor.stop(flush_timeout_ms);  // closes the listener first
  impl_->listen_fd = -1;
}

Reactor& NetServer::reactor() noexcept { return impl_->reactor; }

bool NetServer::send_response(std::uint64_t conn_token,
                              const ResponseMsg& response) {
  const bool sent = impl_->reactor.send_encoded(conn_token, [&](auto& out) {
    encode_response(response, out);
    return true;
  });
  if (sent) impl_->stats.responses_sent.fetch_add(1, std::memory_order_relaxed);
  return sent;
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
  const bool sent = impl_->reactor.send_encoded(conn_token, [&](auto& out) {
    return encode_stats_response_frame(payload, out);
  });
  global_buffer_pool().release(std::move(payload));
  return sent;
}

void NetServer::set_events_handler(EventsHandler on_events) {
  impl_->on_events = std::move(on_events);
}

bool NetServer::send_events(std::uint64_t conn_token,
                            const EventsSnapshot& snapshot) {
  std::vector<std::uint8_t> payload = global_buffer_pool().acquire();
  encode_events_payload(snapshot, payload);
  const bool sent = impl_->reactor.send_encoded(conn_token, [&](auto& out) {
    return encode_events_response_frame(payload, out);
  });
  global_buffer_pool().release(std::move(payload));
  return sent;
}

void NetServer::set_migrate_handler(MigrateHandler on_migrate) {
  impl_->on_migrate = std::move(on_migrate);
}

void NetServer::set_migrate_data_handler(MigrateDataHandler on_migrate_data) {
  impl_->on_migrate_data = std::move(on_migrate_data);
}

bool NetServer::send_migrate_ack(std::uint64_t conn_token,
                                 const MigrateAckMsg& ack) {
  return impl_->reactor.send_encoded(conn_token, [&](auto& out) {
    encode_migrate_ack(ack, out);
    return true;
  });
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
  out.bytes_in = impl_->bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = impl_->bytes_out.load(std::memory_order_relaxed);
  out.slow_consumer_drops =
      a.slow_consumer_drops.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rlb::net
