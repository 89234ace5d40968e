// Blocking client connection for rlb_loadgen, tests, and benches.
//
// One Client is one TCP connection, used by one thread.  Requests may be
// pipelined: send_request() appends to an application-side buffer, flush()
// writes it in a single syscall, and read_response() blocks for the next
// RESPONSE frame (responses arrive in SERVICE order, so callers match on
// request_id).  Protocol violations throw ProtocolError.
//
// A dropped TCP connection need not be fatal: enable_reconnect() arms
// bounded-backoff auto-reconnect, after which flush() re-dials the stored
// endpoint and retransmits the still-buffered frames when the write path
// fails (or the read path has seen EOF).  Responses to frames delivered
// before the drop are gone — callers detect that via read timeouts / EOF
// and resend, exactly as they must for rejected requests.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/events_wire.hpp"
#include "net/stats.hpp"
#include "net/wire.hpp"

namespace rlb::net {

/// The peer broke framing or sent an unexpected message type.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer answered a STATS request with a well-formed STATS_RESP of a
/// different snapshot version — a version-skewed daemon, not corrupt
/// bytes.  Scrapers (rlb_stat --cluster) catch this separately to render
/// a per-node "version mismatch" row instead of treating the node as
/// broken or unreachable.
class StatsVersionMismatch : public ProtocolError {
 public:
  explicit StatsVersionMismatch(std::uint32_t peer_version)
      : ProtocolError("Client: STATS_RESP snapshot version v" +
                      std::to_string(peer_version) + " (want v" +
                      std::to_string(kStatsVersion) + ")"),
        peer_version_(peer_version) {}

  [[nodiscard]] std::uint32_t peer_version() const noexcept {
    return peer_version_;
  }

 private:
  std::uint32_t peer_version_;
};

/// Bounded-backoff schedule for auto-reconnect: up to `max_attempts`
/// dials, sleeping initial_backoff_ms, 2x, 4x, ... (capped at
/// max_backoff_ms) between consecutive failures.
struct ReconnectPolicy {
  unsigned max_attempts = 5;
  std::uint64_t initial_backoff_ms = 20;
  std::uint64_t max_backoff_ms = 1000;
};

/// Outcome of a try_read_* call under a receive timeout.
enum class ReadOutcome : std::uint8_t {
  kFrame,    ///< a frame was decoded into `out`
  kTimeout,  ///< no complete frame arrived within the receive timeout
  kEof,      ///< the peer closed the connection cleanly
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking connect; throws std::runtime_error on failure.  The
  /// endpoint is remembered for reconnect().
  void connect(const std::string& host, std::uint16_t port);

  bool connected() const noexcept { return fd_ >= 0; }

  /// Arm auto-reconnect: when a flush() write fails (or the read side saw
  /// EOF), the client re-dials the last connect() endpoint under `policy`
  /// and retransmits the buffered frames.
  void enable_reconnect(const ReconnectPolicy& policy = {});

  /// Re-dial the stored endpoint with bounded backoff.  Returns false
  /// when every attempt failed.  Pending responses from the old
  /// connection are lost; the send buffer is preserved.
  bool reconnect();

  /// Connections survived via reconnect() since connect().
  std::uint64_t reconnects() const noexcept { return reconnects_; }

  /// Bound every subsequent read by `ms` milliseconds (SO_RCVTIMEO);
  /// 0 restores fully blocking reads.  Applies to the current connection
  /// and is re-applied after reconnect().
  void set_recv_timeout_ms(std::uint64_t ms);

  /// Buffer one REQUEST frame (no I/O until flush()).
  void send_request(std::uint64_t request_id, std::uint64_t key);

  /// Buffer one REQUEST frame carrying a trace context.  An invalid
  /// context (trace_id == 0) encodes the plain v1 frame — identical bytes
  /// to the two-argument overload.
  void send_request(std::uint64_t request_id, std::uint64_t key,
                    const obs::TraceContext& trace);

  /// Write every buffered frame; throws std::runtime_error on I/O failure
  /// (after exhausting reconnect attempts when auto-reconnect is armed).
  void flush();

  /// Block for the next RESPONSE frame.  Returns false on clean EOF (the
  /// socket is closed; with auto-reconnect armed the next flush()
  /// re-dials); throws ProtocolError on framing violations or
  /// non-RESPONSE frames, std::runtime_error on I/O errors — including
  /// an expired receive timeout (use try_read_response() instead).
  bool read_response(ResponseMsg& out);

  /// Non-throwing-on-timeout variant for use with set_recv_timeout_ms():
  /// kFrame fills `out`; kTimeout means no frame yet; kEof closes the
  /// socket (next flush() re-dials when auto-reconnect is armed).
  ReadOutcome try_read_response(ResponseMsg& out);

  /// Decode the next RESPONSE already sitting in the receive buffer
  /// WITHOUT touching the socket.  Returns false when no complete frame
  /// is buffered.  Pipelined callers drain buffered responses with this
  /// after one blocking read_response(), then refill the window with a
  /// single flush() — one write syscall per burst instead of one per
  /// request.  Throws ProtocolError like read_response().
  bool poll_buffered_response(ResponseMsg& out);

  /// Buffer one STATS admin frame (no I/O until flush()).  Use a dedicated
  /// connection for polling: REQUEST and STATS frames on one connection
  /// interleave their replies in service order.  A nonzero `epoch` rides
  /// the frame's placement-epoch extension (the router's heartbeat
  /// piggyback); 0 encodes the plain v1 frame.
  void send_stats_request(std::uint32_t flags = 0, std::uint64_t epoch = 0);

  /// Block for the next STATS_RESP frame and decode it.  Returns false on
  /// clean EOF; throws StatsVersionMismatch when the peer speaks a
  /// different snapshot version, ProtocolError on framing violations,
  /// non-STATS_RESP frames, or an undecodable snapshot.
  bool read_stats_response(StatsSnapshot& out);

  /// Timeout-aware variant of read_stats_response() (see
  /// try_read_response() for the outcome semantics).
  ReadOutcome try_read_stats_response(StatsSnapshot& out);

  /// Buffer one EVENTS admin frame (no I/O until flush()) reading `ring`.
  /// `cursor` is the highest ring sequence already seen (0 = from the
  /// oldest retained); the response resumes after it.  Reads never
  /// remove records, so scrapers on other connections see them too.
  void send_events_request(std::uint64_t cursor,
                           RingId ring = RingId::kJournal);

  /// Block for the next EVENTS_RESP frame and decode it.  Returns false
  /// on clean EOF; throws ProtocolError on framing violations,
  /// non-EVENTS_RESP frames, or an undecodable batch.
  bool read_events_response(EventsSnapshot& out);

  /// Timeout-aware variant of read_events_response().
  ReadOutcome try_read_events_response(EventsSnapshot& out);

  /// Buffer one MIGRATE order (coordinator -> source backend; no I/O
  /// until flush()).  Throws std::runtime_error when the message cannot
  /// encode (oversized host name).
  void send_migrate(const MigrateMsg& msg);

  /// Buffer one MIGRATE_DATA slice (source backend -> target backend).
  /// Throws std::runtime_error when the payload exceeds kMaxMigrateSlice.
  void send_migrate_data(const MigrateDataMsg& msg);

  /// Block for the next MIGRATE_ACK frame and decode it.  Returns false
  /// on clean EOF; throws ProtocolError on framing violations or
  /// non-MIGRATE_ACK frames.
  bool read_migrate_ack(MigrateAckMsg& out);

  /// Timeout-aware variant of read_migrate_ack() (see try_read_response()
  /// for the outcome semantics).
  ReadOutcome try_read_migrate_ack(MigrateAckMsg& out);

  void close();

 private:
  void dial(const std::string& host, std::uint16_t port);
  void close_fd() noexcept;  // drops the socket, keeps the send buffer
  /// Shared read loop: fills payload_ with the next frame.
  ReadOutcome next_frame(bool allow_timeout);

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  bool reconnect_enabled_ = false;
  ReconnectPolicy reconnect_policy_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t recv_timeout_ms_ = 0;
  std::vector<std::uint8_t> send_buffer_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> payload_;
};

}  // namespace rlb::net
