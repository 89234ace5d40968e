#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace rlb::net {

namespace {

void apply_recv_timeout(int fd, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::~Client() { close(); }

void Client::dial(const std::string& host, std::uint16_t port) {
  close_fd();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("Client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd();
    throw std::runtime_error("Client: bad host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close_fd();
    throw std::runtime_error("Client: connect to " + host + ":" +
                             std::to_string(port) + " failed: " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (recv_timeout_ms_ > 0) apply_recv_timeout(fd_, recv_timeout_ms_);
}

void Client::connect(const std::string& host, std::uint16_t port) {
  send_buffer_.clear();
  dial(host, port);
  host_ = host;
  port_ = port;
  reconnects_ = 0;
}

void Client::enable_reconnect(const ReconnectPolicy& policy) {
  reconnect_enabled_ = true;
  reconnect_policy_ = policy;
}

bool Client::reconnect() {
  if (host_.empty()) return false;
  std::uint64_t backoff_ms = reconnect_policy_.initial_backoff_ms;
  for (unsigned attempt = 0; attempt < reconnect_policy_.max_attempts;
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, reconnect_policy_.max_backoff_ms);
    }
    try {
      dial(host_, port_);
      ++reconnects_;
      return true;
    } catch (const std::runtime_error&) {
      // dial() already closed the half-made socket; back off and retry.
    }
  }
  return false;
}

void Client::set_recv_timeout_ms(std::uint64_t ms) {
  recv_timeout_ms_ = ms;
  if (fd_ >= 0) apply_recv_timeout(fd_, ms);
}

void Client::send_request(std::uint64_t request_id, std::uint64_t key) {
  encode_request(RequestMsg{request_id, key, {}}, send_buffer_);
}

void Client::send_request(std::uint64_t request_id, std::uint64_t key,
                          const obs::TraceContext& trace) {
  encode_request(RequestMsg{request_id, key, trace}, send_buffer_);
}

void Client::flush() {
  // The buffer is kept intact until fully written so that a mid-flush
  // connection drop can retransmit every frame from the top on the fresh
  // connection (the peer discards a torn trailing frame with the dead
  // socket, so no duplicate framing results).
  bool retried = false;
  if (fd_ < 0 && reconnect_enabled_ && !reconnect()) {
    throw std::runtime_error("Client: reconnect failed (attempts exhausted)");
  }
  std::size_t offset = 0;
  while (offset < send_buffer_.size()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd_, send_buffer_.data() + offset,
                             send_buffer_.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const bool gone =
          errno == EPIPE || errno == ECONNRESET || errno == EBADF;
      if (gone && reconnect_enabled_ && !retried && reconnect()) {
        retried = true;
        offset = 0;
        continue;
      }
      throw std::runtime_error(std::string("Client: write failed: ") +
                               std::strerror(errno));
    }
    offset += static_cast<std::size_t>(n);
  }
  send_buffer_.clear();
}

ReadOutcome Client::next_frame(bool allow_timeout) {
  using Clock = std::chrono::steady_clock;
  // With a recv timeout armed, the whole call gets ONE deadline window.
  // SO_RCVTIMEO restarts from scratch on every read(), so after an EINTR
  // the remaining window must be recomputed and re-applied — otherwise a
  // signal storm arriving faster than the timeout extends a 100 ms budget
  // indefinitely.
  const bool deadline_armed = recv_timeout_ms_ > 0 && fd_ >= 0;
  const Clock::time_point deadline =
      deadline_armed
          ? Clock::now() + std::chrono::milliseconds(recv_timeout_ms_)
          : Clock::time_point{};
  // Restore the configured full timeout on every exit once it has been
  // shortened, so the next call starts with a fresh window.
  struct RestoreTimeout {
    int fd = -1;
    std::uint64_t ms = 0;
    ~RestoreTimeout() {
      if (fd >= 0) apply_recv_timeout(fd, ms);
    }
  } restore;
  for (;;) {
    if (decoder_.next(payload_)) return ReadOutcome::kFrame;
    if (decoder_.error()) throw ProtocolError("Client: bad frame length");
    if (fd_ < 0) {
      throw std::runtime_error("Client: read on closed connection");
    }
    std::uint8_t buffer[16384];
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n == 0) {
      // Clean EOF: drop the socket now so that (with auto-reconnect
      // armed) the next flush() re-dials instead of writing into a dead
      // connection.
      close_fd();
      return ReadOutcome::kEof;
    }
    if (n < 0) {
      if (errno == EINTR) {
        if (deadline_armed) {
          const Clock::time_point now = Clock::now();
          if (now >= deadline) {
            if (allow_timeout) return ReadOutcome::kTimeout;
            throw std::runtime_error("Client: read timed out");
          }
          const auto remaining_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - now).count() + 1;  // ceil: never arm 0 = forever
          apply_recv_timeout(fd_, static_cast<std::uint64_t>(remaining_ms));
          restore.fd = fd_;
          restore.ms = recv_timeout_ms_;
        }
        continue;
      }
      if (allow_timeout && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return ReadOutcome::kTimeout;
      }
      if (errno == ECONNRESET) {
        // An abortive close (RST) means the same thing as a clean FIN
        // from the caller's point of view: the peer is gone and pending
        // responses are lost.  Surface both uniformly as kEof so the
        // reconnect path stays one code path.
        close_fd();
        return ReadOutcome::kEof;
      }
      throw std::runtime_error(std::string("Client: read failed: ") +
                               std::strerror(errno));
    }
    if (!decoder_.feed(buffer, static_cast<std::size_t>(n))) {
      throw ProtocolError("Client: bad frame length");
    }
  }
}

bool Client::read_response(ResponseMsg& out) {
  const ReadOutcome outcome = try_read_response(out);
  if (outcome == ReadOutcome::kTimeout) {
    throw std::runtime_error("Client: read timed out");
  }
  return outcome == ReadOutcome::kFrame;
}

ReadOutcome Client::try_read_response(ResponseMsg& out) {
  const ReadOutcome outcome = next_frame(/*allow_timeout=*/true);
  if (outcome != ReadOutcome::kFrame) return outcome;
  RequestMsg request;
  const Decoded decoded =
      decode_payload(payload_.data(), payload_.size(), request, out);
  if (decoded != Decoded::kResponse) {
    throw ProtocolError("Client: unexpected frame from server");
  }
  return ReadOutcome::kFrame;
}

bool Client::poll_buffered_response(ResponseMsg& out) {
  if (!decoder_.next(payload_)) {
    if (decoder_.error()) throw ProtocolError("Client: bad frame length");
    return false;
  }
  RequestMsg request;
  const Decoded decoded =
      decode_payload(payload_.data(), payload_.size(), request, out);
  if (decoded != Decoded::kResponse) {
    throw ProtocolError("Client: unexpected frame from server");
  }
  return true;
}

void Client::send_stats_request(std::uint32_t flags, std::uint64_t epoch) {
  encode_stats_request(StatsRequestMsg{flags, epoch}, send_buffer_);
}

bool Client::read_stats_response(StatsSnapshot& out) {
  const ReadOutcome outcome = try_read_stats_response(out);
  if (outcome == ReadOutcome::kTimeout) {
    throw std::runtime_error("Client: read timed out");
  }
  return outcome == ReadOutcome::kFrame;
}

ReadOutcome Client::try_read_stats_response(StatsSnapshot& out) {
  const ReadOutcome outcome = next_frame(/*allow_timeout=*/true);
  if (outcome != ReadOutcome::kFrame) return outcome;
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats_request;
  const Decoded decoded = decode_payload(payload_.data(), payload_.size(),
                                         request, response, stats_request);
  if (decoded != Decoded::kStatsResponse) {
    throw ProtocolError("Client: expected STATS_RESP frame");
  }
  if (!decode_stats_payload(payload_.data(), payload_.size(), out)) {
    // A well-formed header with a different version word is skew, not
    // corruption — report which version the peer speaks.
    std::uint32_t peer_version = 0;
    if (peek_stats_version(payload_.data(), payload_.size(), peer_version) &&
        peer_version != kStatsVersion) {
      throw StatsVersionMismatch(peer_version);
    }
    throw ProtocolError("Client: bad STATS_RESP snapshot");
  }
  return ReadOutcome::kFrame;
}

void Client::send_events_request(std::uint64_t cursor, RingId ring) {
  encode_events_request(
      EventsRequestMsg{static_cast<std::uint32_t>(ring), cursor},
      send_buffer_);
}

bool Client::read_events_response(EventsSnapshot& out) {
  const ReadOutcome outcome = try_read_events_response(out);
  if (outcome == ReadOutcome::kTimeout) {
    throw std::runtime_error("Client: read timed out");
  }
  return outcome == ReadOutcome::kFrame;
}

ReadOutcome Client::try_read_events_response(EventsSnapshot& out) {
  const ReadOutcome outcome = next_frame(/*allow_timeout=*/true);
  if (outcome != ReadOutcome::kFrame) return outcome;
  if (payload_.empty() ||
      payload_[0] != static_cast<std::uint8_t>(MsgType::kEventsResponse)) {
    throw ProtocolError("Client: expected EVENTS_RESP frame");
  }
  if (!decode_events_payload(payload_.data(), payload_.size(), out)) {
    throw ProtocolError("Client: bad EVENTS_RESP batch");
  }
  return ReadOutcome::kFrame;
}

void Client::send_migrate(const MigrateMsg& msg) {
  if (!encode_migrate(msg, send_buffer_)) {
    throw std::runtime_error("Client: MIGRATE message does not encode");
  }
}

void Client::send_migrate_data(const MigrateDataMsg& msg) {
  if (!encode_migrate_data(msg, send_buffer_)) {
    throw std::runtime_error("Client: MIGRATE_DATA slice too large");
  }
}

bool Client::read_migrate_ack(MigrateAckMsg& out) {
  const ReadOutcome outcome = try_read_migrate_ack(out);
  if (outcome == ReadOutcome::kTimeout) {
    throw std::runtime_error("Client: read timed out");
  }
  return outcome == ReadOutcome::kFrame;
}

ReadOutcome Client::try_read_migrate_ack(MigrateAckMsg& out) {
  const ReadOutcome outcome = next_frame(/*allow_timeout=*/true);
  if (outcome != ReadOutcome::kFrame) return outcome;
  if (!decode_migrate_ack(payload_.data(), payload_.size(), out)) {
    throw ProtocolError("Client: expected MIGRATE_ACK frame");
  }
  return ReadOutcome::kFrame;
}

void Client::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

void Client::close() {
  close_fd();
  send_buffer_.clear();
  host_.clear();
  port_ = 0;
}

}  // namespace rlb::net
