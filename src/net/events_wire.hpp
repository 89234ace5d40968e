// The EVENTS_RESP ring batch: reading a daemon's sequenced rings over the
// wire.
//
// A daemon keeps two sequenced rings: the control-plane event journal
// (obs/journal.hpp) and the span flight recorder (obs/span.hpp).  Both
// are read the same way.  An EVENTS request (net/wire.hpp, u8 type=10)
// names the ring in the low byte of its flags and carries the scraper's
// cursor — the highest sequence it has already seen — and the answer is
// one EVENTS_RESP frame with the records after it.  The encoding follows
// STATS_RESP conventions (net/stats.hpp): little-endian fixed-width
// integers, exact payload consumption required.
//
//   u8 type=11, u32 version, u8 ring, u8 role, u32 backend_id,
//   u64 anchor steady_ns, u64 dropped, u64 next_cursor, u64 remaining,
//   u32 count, then `count` records of the ring's kind:
//     journal: u64 seq, u64 steady_ns, u64 wall_ns, u8 type, u64 a0,
//              u64 a1, u8 len + detail bytes
//     spans:   u64 seq, u64 trace_id, u64 span_id, u64 parent_span_id,
//              u64 start_ns, u64 end_ns, u64 queue_depth,
//              u16 len + name bytes, u32 shard, u32 tid, u8 flags, u8 cause
//
// Reads do NOT drain: each ring keeps its newest records and any number
// of scrapers resume independently by cursor.  When a ring evicts records
// before a cursor reaches them the response reports them in `dropped` —
// overflow is explicit, never silent.  At most kMaxEventsPerResponse
// journal events or kMaxSpansPerResponse spans travel per frame;
// `remaining` > 0 tells the scraper to ask again from `next_cursor`.
//
// Clock anchor: record timestamps are steady-clock ns since *their*
// process started.  Every batch carries the steady_ns its daemon sampled
// while answering; clock_offset_ns() maps the daemon's steady clock onto
// the scraper's wall clock by placing that instant at the midpoint of the
// request's round trip.  The daemon's own wall clock never enters, so
// its skew cancels out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "net/wire.hpp"
#include "obs/span.hpp"

namespace rlb::net {

/// Bump on any layout change.
inline constexpr std::uint32_t kEventsVersion = 2;

/// Ceiling on journal events per EVENTS_RESP frame: 512 x ~75 bytes stays
/// well under the 64 KiB frame payload cap.
inline constexpr std::size_t kMaxEventsPerResponse = 512;

/// Ceiling on spans per EVENTS_RESP frame, sized so a full batch stays
/// under kMaxFramePayload even with long span names.
inline constexpr std::size_t kMaxSpansPerResponse = 400;

/// One journal entry on the wire (see obs/journal.hpp JournalEvent).
struct EventRecord {
  std::uint64_t seq = 0;
  std::uint64_t steady_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint8_t type = 0;  ///< obs::JournalType value
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::string detail;
};

/// One EVENTS_RESP frame's worth of one ring's records.
struct EventsSnapshot {
  std::uint32_t version = kEventsVersion;
  RingId ring = RingId::kJournal;
  NodeRole role = NodeRole::kBackend;
  std::uint32_t backend_id = 0;
  /// Clock anchor: the daemon's steady clock while answering.
  std::uint64_t steady_ns = 0;
  /// Records evicted between the request's cursor and the oldest record
  /// returned (0 = gapless resume).
  std::uint64_t dropped = 0;
  /// Cursor for the next request.
  std::uint64_t next_cursor = 0;
  /// Records still in the ring beyond this batch (non-zero => ask again).
  std::uint64_t remaining = 0;
  std::vector<EventRecord> events;  ///< ring kJournal
  std::vector<obs::Span> spans;     ///< ring kSpans
};

/// Serialize `snapshot` as an EVENTS_RESP payload (type byte included, no
/// frame length prefix) appended to `out`.  Encodes the records of
/// `snapshot.ring` only, at most that ring's per-frame ceiling; callers
/// chunk (make_events_snapshot already does).
void encode_events_payload(const EventsSnapshot& snapshot,
                           std::vector<std::uint8_t>& out);

/// Parse an EVENTS_RESP payload.  Returns false on a malformed body, an
/// unknown ring, or a version other than kEventsVersion; `out` is
/// unspecified on failure.  Span names are interned for the process
/// lifetime.
bool decode_events_payload(const std::uint8_t* data, std::size_t size,
                           EventsSnapshot& out);

/// Build one response batch from the process-global ring: records after
/// `cursor`, capped at the ring's per-frame ceiling, with role/id/clock
/// anchor stamped.  Under RLB_OBS_DISABLED the record list is always empty
/// (both rings are compiled out) but the anchor is still valid.
EventsSnapshot make_events_snapshot(NodeRole role, std::uint32_t backend_id,
                                    std::uint64_t cursor,
                                    RingId ring = RingId::kJournal);

/// The offset that maps a daemon's steady-clock timestamps onto the
/// scraper's wall clock: the batch's anchor (`anchor_steady_ns`) was
/// sampled between the scraper's send (`sent_wall_ns`) and receive
/// (`recv_wall_ns`), so it lands on their midpoint.
std::int64_t clock_offset_ns(std::uint64_t sent_wall_ns,
                             std::uint64_t recv_wall_ns,
                             std::uint64_t anchor_steady_ns);

}  // namespace rlb::net
