// The rlb serving wire protocol: length-prefixed binary frames.
//
// Everything on the wire is a frame: a little-endian u32 payload length
// followed by that many payload bytes.  The first payload byte is the
// message type; all integers are little-endian and fixed-width, so a frame
// decodes with no lookahead beyond its length prefix and encodes with no
// allocation beyond the output buffer.
//
//   REQUEST    (client -> rlbd):  u8 type=1, u64 request_id, u64 key
//                                 [, u64 trace_id, u64 parent_span_id,
//                                    u8 trace_flags]
//   RESPONSE   (rlbd -> client):  u8 type=2, u64 request_id, u8 status,
//                                 u32 server, u32 wait_steps
//   STATS      (client -> rlbd):  u8 type=3, u32 flags (reserved, send 0)
//   STATS_RESP (rlbd -> client):  u8 type=4, versioned snapshot blob
//                                 (see net/stats.hpp for the layout)
//   MIGRATE    (coordinator -> source rlbd):
//                                 u8 type=7, u64 migration_id, u64 chunk,
//                                 u64 epoch, u32 target_backend, u64 bytes,
//                                 u16 target_port, u16 host_len, host bytes
//   MIGRATE_DATA (source rlbd -> target rlbd):
//                                 u8 type=8, u64 migration_id, u64 chunk,
//                                 u64 offset, u64 total_bytes, u64 checksum,
//                                 u8 last, u32 payload_len, payload bytes
//   MIGRATE_ACK  (rlbd -> sender):
//                                 u8 type=9, u64 migration_id, u8 status,
//                                 u64 bytes
//   EVENTS     (client -> daemon): u8 type=10, u32 flags (low byte =
//                                 ring: 0 journal, 1 spans; the rest
//                                 reserved, send 0), u64 cursor (last-seen
//                                 ring sequence; 0 = from the oldest
//                                 retained)
//   EVENTS_RESP (daemon -> client): u8 type=11, versioned ring batch
//                                 (see net/events_wire.hpp for the layout)
//
// Types 5 and 6 are retired: never reuse them.  They decode as malformed,
// like any unknown type.
//
// The REQUEST trace extension is optional and version-free by size: a
// 17-byte payload is the v1 frame (no context), a 34-byte payload appends
// the 17-byte trace context.  Encoders emit the extension only when a
// context is present (trace_id != 0), so peers that predate it never see
// extended frames and new decoders accept both sizes — sampling off costs
// zero wire bytes.  STATS uses the same idiom for the repair tier's
// placement-epoch piggyback: the 5-byte v1 form carries no epoch, a
// 13-byte form appends the sender's u64 placement epoch (emitted only when
// nonzero), so pre-repair peers and scrapers interoperate unchanged.
//
// `request_id` is client-assigned and echoed verbatim; responses may come
// back in any order (the engine answers in service order, not arrival
// order), so clients must match on it.  `status` is the paper's rejection
// rule surfaced as backpressure: kOk = served, kReject = the bounded queue
// (or the engine's waiting room) was full, kError = the daemon could not
// process the request (e.g. shutting down).  `server` and `wait_steps`
// (drain-clock steps spent queued) are meaningful for kOk only.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace rlb::net {

/// Hard ceiling on a frame's payload size.  Request/response frames are
/// tiny, but a STATS_RESP snapshot carries per-shard rows, latency buckets
/// and safe-set levels, so the cap is sized for it.  Anything larger is a
/// corrupt or hostile stream and kills the connection.
inline constexpr std::uint32_t kMaxFramePayload = 64 * 1024;

enum class MsgType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kStats = 3,
  kStatsResponse = 4,
  // 5 and 6 are retired (see the file comment).
  kMigrate = 7,
  kMigrateData = 8,
  kMigrateAck = 9,
  kEvents = 10,
  kEventsResponse = 11,
};

enum class Status : std::uint8_t {
  kOk = 0,
  /// The backend's bounded queue (or waiting room) was full.
  kReject = 1,
  /// The daemon could not process the request (e.g. shutting down).
  kError = 2,
  /// Hop-level reject from a router tier: every one of the chunk's d
  /// candidate backends was marked down, so the request was never
  /// forwarded.
  kRejectUpstreamDown = 3,
  /// Hop-level reject from a router tier: the request was forwarded but
  /// no backend answered within the retry/timeout budget.
  kRejectUpstreamTimeout = 4,
};

const char* to_string(Status status) noexcept;

/// True for every rejection flavour (queue-bound or hop-level) — the
/// request was refused under backpressure, as opposed to served (kOk) or
/// failed (kError).
constexpr bool is_reject(Status status) noexcept {
  return status == Status::kReject || status == Status::kRejectUpstreamDown ||
         status == Status::kRejectUpstreamTimeout;
}

struct RequestMsg {
  std::uint64_t request_id = 0;
  std::uint64_t key = 0;
  /// Optional distributed-tracing context (see obs/span.hpp).  Zero
  /// trace_id = absent; present contexts ride the wire as the 17-byte
  /// REQUEST extension and are forwarded hop to hop.
  obs::TraceContext trace;
};

struct ResponseMsg {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  /// Global server id that served the request (kOk only).
  std::uint32_t server = 0;
  /// Drain-clock steps the request spent queued (kOk only).
  std::uint32_t wait_steps = 0;
};

/// Admin request for a live metrics snapshot.  `flags` is reserved for
/// future sub-selection (always send 0; the daemon ignores it today).
/// `epoch` is the sender's current placement epoch, piggybacked on the
/// router's heartbeat scrapes so backends learn of repair cutovers with
/// no extra round trip; zero (the default) encodes the 5-byte v1 frame.
struct StatsRequestMsg {
  std::uint32_t flags = 0;
  std::uint64_t epoch = 0;
};

/// The sequenced rings an EVENTS request can read.
enum class RingId : std::uint8_t {
  /// The control-plane event journal (obs/journal.hpp).
  kJournal = 0,
  /// The span flight recorder (obs/span.hpp).
  kSpans = 1,
};

/// Admin request for one of the daemon's sequenced rings.  `cursor` is the
/// highest ring sequence the scraper has already seen (0 on first
/// contact); the daemon answers with records AFTER it, reads are
/// non-destructive, and the reply's next_cursor resumes the stream — so
/// any number of scrapers (and `rlb_stat --events --follow`) read
/// independently.  The low byte of `flags` names the ring (a RingId); the
/// upper bytes are reserved (send 0).
struct EventsRequestMsg {
  std::uint32_t flags = 0;
  std::uint64_t cursor = 0;

  RingId ring() const noexcept { return static_cast<RingId>(flags & 0xff); }
};

/// Repair-plane order from the coordinator to the backend currently
/// holding a replica of `chunk`: stream `bytes` bytes of chunk state to
/// the target backend (dial `target_host:target_port`), then MIGRATE_ACK
/// the coordinator.  `epoch` is the placement epoch this migration works
/// toward; `migration_id` correlates the ack.
struct MigrateMsg {
  std::uint64_t migration_id = 0;
  std::uint64_t chunk = 0;
  std::uint64_t epoch = 0;
  std::uint32_t target_backend = 0;
  std::uint64_t bytes = 0;
  std::uint16_t target_port = 0;
  std::string target_host;
};

/// One slice of migrated chunk state, source backend -> target backend.
/// `offset` positions the slice inside `total_bytes`; `checksum` is the
/// FNV-1a digest of the payload bytes; `last` marks the final slice of
/// the migration.  The target MIGRATE_ACKs once after the last slice.
struct MigrateDataMsg {
  std::uint64_t migration_id = 0;
  std::uint64_t chunk = 0;
  std::uint64_t offset = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t checksum = 0;
  bool last = false;
  std::vector<std::uint8_t> payload;
};

/// Migration outcome: status 0 = success, nonzero = failure code.
/// `bytes` echoes how many payload bytes the acker verified (target) or
/// streamed (source).
struct MigrateAckMsg {
  std::uint64_t migration_id = 0;
  std::uint8_t status = 0;
  std::uint64_t bytes = 0;
};

/// Encoded sizes (frame = 4-byte length prefix + payload).
inline constexpr std::size_t kRequestPayloadSize = 17;
/// REQUEST with the trace-context extension appended.
inline constexpr std::size_t kRequestTracedPayloadSize = 34;
inline constexpr std::size_t kResponsePayloadSize = 18;
inline constexpr std::size_t kStatsPayloadSize = 5;
/// STATS with the placement-epoch extension appended.
inline constexpr std::size_t kStatsEpochPayloadSize = 13;
inline constexpr std::size_t kEventsPayloadSize = 13;
/// MIGRATE before the variable-length target host bytes.
inline constexpr std::size_t kMigrateHeaderSize = 41;
/// MIGRATE_DATA before the variable-length payload bytes.
inline constexpr std::size_t kMigrateDataHeaderSize = 46;
inline constexpr std::size_t kMigrateAckPayloadSize = 18;
/// Largest MIGRATE_DATA payload slice an encoder may emit — comfortably
/// under kMaxFramePayload so repair frames never monopolize a stream.
inline constexpr std::size_t kMaxMigrateSlice = 32 * 1024;

/// Append one framed message to `out`.
void encode_request(const RequestMsg& msg, std::vector<std::uint8_t>& out);
void encode_response(const ResponseMsg& msg, std::vector<std::uint8_t>& out);
void encode_stats_request(const StatsRequestMsg& msg,
                          std::vector<std::uint8_t>& out);
/// Frame an already-encoded STATS_RESP payload (type byte included — see
/// net/stats.hpp encode_stats_payload).  Returns false (and appends
/// nothing) when the payload exceeds kMaxFramePayload.
bool encode_stats_response_frame(const std::vector<std::uint8_t>& payload,
                                 std::vector<std::uint8_t>& out);
void encode_events_request(const EventsRequestMsg& msg,
                           std::vector<std::uint8_t>& out);
/// Same for an EVENTS_RESP payload (see net/events_wire.hpp
/// encode_events_payload).
bool encode_events_response_frame(const std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out);

/// Repair-plane frames.  encode_migrate fails (appends nothing) when the
/// host name would overflow the frame cap; encode_migrate_data fails when
/// the payload slice exceeds kMaxMigrateSlice.
bool encode_migrate(const MigrateMsg& msg, std::vector<std::uint8_t>& out);
bool encode_migrate_data(const MigrateDataMsg& msg,
                         std::vector<std::uint8_t>& out);
void encode_migrate_ack(const MigrateAckMsg& msg,
                        std::vector<std::uint8_t>& out);

/// Parse a payload decode_payload classified as kMigrate / kMigrateData /
/// kMigrateAck.  False on malformed bodies (bad lengths, truncation).
[[nodiscard]] bool decode_migrate(const std::uint8_t* data, std::size_t size,
                                  MigrateMsg& out);
[[nodiscard]] bool decode_migrate_data(const std::uint8_t* data,
                                       std::size_t size, MigrateDataMsg& out);
[[nodiscard]] bool decode_migrate_ack(const std::uint8_t* data,
                                      std::size_t size, MigrateAckMsg& out);

/// FNV-1a digest of a migration payload slice (the MIGRATE_DATA checksum).
[[nodiscard]] std::uint64_t migrate_checksum(const std::uint8_t* data,
                                             std::size_t size) noexcept;

/// What a payload decoded to.
enum class Decoded : std::uint8_t {
  kRequest,
  kResponse,
  kStats,
  /// A STATS_RESP frame.  decode_payload only classifies it; the snapshot
  /// body is parsed separately (net/stats.hpp decode_stats_payload).
  kStatsResponse,
  /// Repair-plane frames: classified only (size-sanity checked); bodies
  /// are parsed by decode_migrate / decode_migrate_data /
  /// decode_migrate_ack.
  kMigrate,
  kMigrateData,
  kMigrateAck,
  /// An EVENTS ring read.
  kEvents,
  /// An EVENTS_RESP frame; classified only, parsed by
  /// net/events_wire.hpp decode_events_payload.
  kEventsResponse,
  kMalformed,
};

/// Decode one frame payload (no length prefix).  At most one of
/// `request` / `response` / `stats` / `events` is filled on success.  An
/// EVENTS frame naming an unknown ring is malformed.
Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats, EventsRequestMsg& events);

/// STATS-only admin form: EVENTS frames classify but fill nothing.
Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats);

/// Request/response-only form: admin frames classify but fill nothing.
Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response);

/// A complete frame payload viewed in place inside a FrameDecoder's
/// buffer.  Valid only until the next feed()/next()/next_view()/reset()
/// call on the decoder that produced it.
struct FrameView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// feed() buffers bytes; next()/next_view() pop complete payloads in
/// order.  The buffer is consumed by advancing an offset and compacted
/// with a capacity-retaining memmove only when the dead prefix dominates,
/// so steady-state traffic does zero per-frame allocations after the
/// buffer warms up.
///
/// A frame with a zero or oversize length poisons the decoder: error()
/// becomes true, buffered bytes are dropped, and every subsequent feed(),
/// next() and next_view() returns false — the error is sticky and framing
/// cannot resynchronize; the connection must be closed.
class FrameDecoder {
 public:
  /// Buffer `size` bytes.  Returns false once the stream is poisoned
  /// (including when this very call trips the poison).
  bool feed(const std::uint8_t* data, std::size_t size);

  /// Pop the next complete payload into `out` (resized).  False when no
  /// complete frame is buffered (or the decoder is poisoned).
  bool next(std::vector<std::uint8_t>& out);

  /// Zero-copy variant: point `out` at the next complete payload inside
  /// the internal buffer.  The view is invalidated by the next call on
  /// this decoder.  False when no complete frame is buffered (or the
  /// decoder is poisoned).
  bool next_view(FrameView& out);

  /// Forget everything (buffered bytes and a sticky error), retaining the
  /// buffer's capacity so a recycled decoder stays allocation-free.
  void reset() noexcept;

  bool error() const noexcept { return error_; }
  /// Bytes buffered but not yet popped (length prefixes included).
  /// Always zero once the decoder is poisoned.
  std::size_t buffered() const noexcept {
    return error_ ? 0 : buffer_.size() - offset_;
  }

 private:
  void poison() noexcept;

  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;  // consumed prefix of buffer_
  bool error_ = false;
};

}  // namespace rlb::net
