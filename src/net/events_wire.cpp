#include "net/events_wire.hpp"

#include <algorithm>
#include <string_view>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace rlb::net {

namespace {

// Little-endian primitives, mirroring stats.cpp.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// Bounds-checked sequential reader (same shape as the stats.cpp Cursor).
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (!has(1)) return false;
    v = data_[pos_];
    pos_ += 1;
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (!has(2)) return false;
    v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (!has(4)) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (!has(8)) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return true;
  }

  /// `n` raw bytes, viewed in place.
  bool bytes(std::size_t n, std::string_view& v) {
    if (!has(n)) return false;
    v = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  [[nodiscard]] bool has(std::size_t n) const { return size_ - pos_ >= n; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::size_t max_records(RingId ring) {
  return ring == RingId::kSpans ? kMaxSpansPerResponse : kMaxEventsPerResponse;
}

void put_event(std::vector<std::uint8_t>& out, const EventRecord& e) {
  put_u64(out, e.seq);
  put_u64(out, e.steady_ns);
  put_u64(out, e.wall_ns);
  out.push_back(e.type);
  put_u64(out, e.a0);
  put_u64(out, e.a1);
  const std::size_t n = std::min<std::size_t>(e.detail.size(), 0xff);
  out.push_back(static_cast<std::uint8_t>(n));
  out.insert(out.end(), e.detail.begin(), e.detail.begin() + n);
}

bool get_event(Cursor& c, EventRecord& e) {
  std::uint8_t n = 0;
  std::string_view detail;
  if (!c.u64(e.seq) || !c.u64(e.steady_ns) || !c.u64(e.wall_ns) ||
      !c.u8(e.type) || !c.u64(e.a0) || !c.u64(e.a1) || !c.u8(n) ||
      !c.bytes(n, detail)) {
    return false;
  }
  e.detail.assign(detail);
  return true;
}

void put_span(std::vector<std::uint8_t>& out, const obs::Span& s) {
  put_u64(out, s.seq);
  put_u64(out, s.trace_id);
  put_u64(out, s.span_id);
  put_u64(out, s.parent_span_id);
  put_u64(out, s.start_ns);
  put_u64(out, s.end_ns);
  put_u64(out, s.queue_depth);
  const std::size_t n = std::min<std::size_t>(std::string_view(s.name).size(),
                                              0xffff);
  put_u16(out, static_cast<std::uint16_t>(n));
  out.insert(out.end(), s.name, s.name + n);
  put_u32(out, s.shard);
  put_u32(out, s.tid);
  out.push_back(s.flags);
  out.push_back(s.cause);
}

bool get_span(Cursor& c, obs::Span& s) {
  std::uint16_t n = 0;
  std::string_view name;
  if (!c.u64(s.seq) || !c.u64(s.trace_id) || !c.u64(s.span_id) ||
      !c.u64(s.parent_span_id) || !c.u64(s.start_ns) || !c.u64(s.end_ns) ||
      !c.u64(s.queue_depth) || !c.u16(n) || !c.bytes(n, name) ||
      !c.u32(s.shard) || !c.u32(s.tid) || !c.u8(s.flags) || !c.u8(s.cause)) {
    return false;
  }
  s.name = obs::intern_span_name(name);
  return true;
}

}  // namespace

void encode_events_payload(const EventsSnapshot& snapshot,
                           std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(MsgType::kEventsResponse));
  put_u32(out, snapshot.version);
  out.push_back(static_cast<std::uint8_t>(snapshot.ring));
  out.push_back(static_cast<std::uint8_t>(snapshot.role));
  put_u32(out, snapshot.backend_id);
  put_u64(out, snapshot.steady_ns);
  put_u64(out, snapshot.dropped);
  put_u64(out, snapshot.next_cursor);
  put_u64(out, snapshot.remaining);
  const bool spans = snapshot.ring == RingId::kSpans;
  const std::size_t count =
      std::min(spans ? snapshot.spans.size() : snapshot.events.size(),
               max_records(snapshot.ring));
  put_u32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    if (spans) {
      put_span(out, snapshot.spans[i]);
    } else {
      put_event(out, snapshot.events[i]);
    }
  }
}

bool decode_events_payload(const std::uint8_t* data, std::size_t size,
                           EventsSnapshot& out) {
  if (size == 0 ||
      data[0] != static_cast<std::uint8_t>(MsgType::kEventsResponse)) {
    return false;
  }
  Cursor c(data + 1, size - 1);
  if (!c.u32(out.version)) return false;
  if (out.version != kEventsVersion) return false;
  std::uint8_t ring = 0;
  std::uint8_t role = 0;
  if (!c.u8(ring) || ring > static_cast<std::uint8_t>(RingId::kSpans)) {
    return false;
  }
  if (!c.u8(role) || role > static_cast<std::uint8_t>(NodeRole::kRouter)) {
    return false;
  }
  out.ring = static_cast<RingId>(ring);
  out.role = static_cast<NodeRole>(role);
  if (!c.u32(out.backend_id) || !c.u64(out.steady_ns) ||
      !c.u64(out.dropped) || !c.u64(out.next_cursor) ||
      !c.u64(out.remaining)) {
    return false;
  }
  std::uint32_t count = 0;
  if (!c.u32(count)) return false;
  if (count > max_records(out.ring)) return false;
  out.events.clear();
  out.spans.clear();
  if (out.ring == RingId::kSpans) {
    out.spans.assign(count, obs::Span{});
    for (obs::Span& s : out.spans) {
      if (!get_span(c, s)) return false;
    }
  } else {
    out.events.assign(count, EventRecord{});
    for (EventRecord& e : out.events) {
      if (!get_event(c, e)) return false;
    }
  }
  return c.exhausted();
}

EventsSnapshot make_events_snapshot(NodeRole role, std::uint32_t backend_id,
                                    std::uint64_t cursor, RingId ring) {
  EventsSnapshot snapshot;
  snapshot.ring = ring;
  snapshot.role = role;
  snapshot.backend_id = backend_id;
  // The anchor is stamped whether or not any records exist: a scraper can
  // always clock-align this node.
  snapshot.steady_ns = obs::now_ns();
  snapshot.next_cursor = cursor;
#if !defined(RLB_OBS_DISABLED)
  obs::JournalReadResult read;
  if (ring == RingId::kSpans) {
    read = obs::SpanRecorder::instance().read_from(
        cursor, kMaxSpansPerResponse, snapshot.spans);
  } else {
    std::vector<obs::JournalEvent> events;
    read = obs::Journal::instance().read_from(cursor, kMaxEventsPerResponse,
                                              events);
    snapshot.events.reserve(events.size());
    for (const obs::JournalEvent& e : events) {
      EventRecord record;
      record.seq = e.seq;
      record.steady_ns = e.steady_ns;
      record.wall_ns = e.wall_ns;
      record.type = static_cast<std::uint8_t>(e.type);
      record.a0 = e.a0;
      record.a1 = e.a1;
      record.detail.assign(e.detail_view());
      snapshot.events.push_back(std::move(record));
    }
  }
  snapshot.dropped = read.dropped;
  snapshot.next_cursor = read.next_cursor;
  snapshot.remaining = read.remaining;
#endif
  return snapshot;
}

std::int64_t clock_offset_ns(std::uint64_t sent_wall_ns,
                             std::uint64_t recv_wall_ns,
                             std::uint64_t anchor_steady_ns) {
  const std::int64_t midpoint =
      static_cast<std::int64_t>(sent_wall_ns) +
      (static_cast<std::int64_t>(recv_wall_ns) -
       static_cast<std::int64_t>(sent_wall_ns)) /
          2;
  return midpoint - static_cast<std::int64_t>(anchor_steady_ns);
}

}  // namespace rlb::net
