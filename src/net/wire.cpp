#include "net/wire.hpp"

#include <cstring>

namespace rlb::net {

namespace {

// Little-endian stores into a frame the caller has already sized.
std::uint8_t* store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  return p + 4;
}

std::uint8_t* store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 8;
}

/// Grow `out` by `bytes` and return where the new bytes start.
std::uint8_t* extend(std::vector<std::uint8_t>& out, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  return out.data() + at;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  store_u32(extend(out, 4), v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  store_u64(extend(out, 8), v);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kReject:
      return "reject";
    case Status::kError:
      return "error";
    case Status::kRejectUpstreamDown:
      return "reject-upstream-down";
    case Status::kRejectUpstreamTimeout:
      return "reject-upstream-timeout";
  }
  return "unknown";
}

void encode_request(const RequestMsg& msg, std::vector<std::uint8_t>& out) {
  // The trace extension is emitted only when a context is present, so a
  // non-sampled request is byte-identical to the v1 frame (and old peers
  // never see the extended size).
  const bool traced = msg.trace.valid();
  const std::size_t payload =
      traced ? kRequestTracedPayloadSize : kRequestPayloadSize;
  std::uint8_t* p = extend(out, 4 + payload);
  p = store_u32(p, static_cast<std::uint32_t>(payload));
  *p++ = static_cast<std::uint8_t>(MsgType::kRequest);
  p = store_u64(p, msg.request_id);
  p = store_u64(p, msg.key);
  if (traced) {
    p = store_u64(p, msg.trace.trace_id);
    p = store_u64(p, msg.trace.parent_span_id);
    *p = msg.trace.flags;
  }
}

void encode_response(const ResponseMsg& msg, std::vector<std::uint8_t>& out) {
  std::uint8_t* p = extend(out, 4 + kResponsePayloadSize);
  p = store_u32(p, static_cast<std::uint32_t>(kResponsePayloadSize));
  *p++ = static_cast<std::uint8_t>(MsgType::kResponse);
  p = store_u64(p, msg.request_id);
  *p++ = static_cast<std::uint8_t>(msg.status);
  p = store_u32(p, msg.server);
  store_u32(p, msg.wait_steps);
}

void encode_stats_request(const StatsRequestMsg& msg,
                          std::vector<std::uint8_t>& out) {
  // Same optional-extension-by-size idiom as the REQUEST trace context:
  // epoch 0 (no repair commits yet, or a pre-repair sender) encodes the
  // 5-byte v1 frame, so the extension costs zero bytes until the first
  // placement cutover.
  const bool epoched = msg.epoch != 0;
  put_u32(out, static_cast<std::uint32_t>(epoched ? kStatsEpochPayloadSize
                                                  : kStatsPayloadSize));
  out.push_back(static_cast<std::uint8_t>(MsgType::kStats));
  put_u32(out, msg.flags);
  if (epoched) put_u64(out, msg.epoch);
}

bool encode_stats_response_frame(const std::vector<std::uint8_t>& payload,
                                 std::vector<std::uint8_t>& out) {
  if (payload.empty() || payload.size() > kMaxFramePayload) return false;
  if (payload[0] != static_cast<std::uint8_t>(MsgType::kStatsResponse)) {
    return false;
  }
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return true;
}

void encode_events_request(const EventsRequestMsg& msg,
                           std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(kEventsPayloadSize));
  out.push_back(static_cast<std::uint8_t>(MsgType::kEvents));
  put_u32(out, msg.flags);
  put_u64(out, msg.cursor);
}

bool encode_events_response_frame(const std::vector<std::uint8_t>& payload,
                                  std::vector<std::uint8_t>& out) {
  if (payload.empty() || payload.size() > kMaxFramePayload) return false;
  if (payload[0] != static_cast<std::uint8_t>(MsgType::kEventsResponse)) {
    return false;
  }
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return true;
}

bool encode_migrate(const MigrateMsg& msg, std::vector<std::uint8_t>& out) {
  const std::size_t payload = kMigrateHeaderSize + msg.target_host.size();
  if (msg.target_host.size() > 0xffff || payload > kMaxFramePayload) {
    return false;
  }
  put_u32(out, static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<std::uint8_t>(MsgType::kMigrate));
  put_u64(out, msg.migration_id);
  put_u64(out, msg.chunk);
  put_u64(out, msg.epoch);
  put_u32(out, msg.target_backend);
  put_u64(out, msg.bytes);
  out.push_back(static_cast<std::uint8_t>(msg.target_port));
  out.push_back(static_cast<std::uint8_t>(msg.target_port >> 8));
  out.push_back(static_cast<std::uint8_t>(msg.target_host.size()));
  out.push_back(static_cast<std::uint8_t>(msg.target_host.size() >> 8));
  out.insert(out.end(), msg.target_host.begin(), msg.target_host.end());
  return true;
}

bool encode_migrate_data(const MigrateDataMsg& msg,
                         std::vector<std::uint8_t>& out) {
  if (msg.payload.size() > kMaxMigrateSlice) return false;
  const std::size_t payload = kMigrateDataHeaderSize + msg.payload.size();
  put_u32(out, static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<std::uint8_t>(MsgType::kMigrateData));
  put_u64(out, msg.migration_id);
  put_u64(out, msg.chunk);
  put_u64(out, msg.offset);
  put_u64(out, msg.total_bytes);
  put_u64(out, msg.checksum);
  out.push_back(msg.last ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(msg.payload.size()));
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return true;
}

void encode_migrate_ack(const MigrateAckMsg& msg,
                        std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(kMigrateAckPayloadSize));
  out.push_back(static_cast<std::uint8_t>(MsgType::kMigrateAck));
  put_u64(out, msg.migration_id);
  out.push_back(msg.status);
  put_u64(out, msg.bytes);
}

bool decode_migrate(const std::uint8_t* data, std::size_t size,
                    MigrateMsg& out) {
  if (size < kMigrateHeaderSize ||
      data[0] != static_cast<std::uint8_t>(MsgType::kMigrate)) {
    return false;
  }
  out.migration_id = get_u64(data + 1);
  out.chunk = get_u64(data + 9);
  out.epoch = get_u64(data + 17);
  out.target_backend = get_u32(data + 25);
  out.bytes = get_u64(data + 29);
  out.target_port = static_cast<std::uint16_t>(
      data[37] | (static_cast<std::uint16_t>(data[38]) << 8));
  const std::size_t host_len =
      data[39] | (static_cast<std::size_t>(data[40]) << 8);
  if (size != kMigrateHeaderSize + host_len) return false;
  out.target_host.assign(reinterpret_cast<const char*>(data + 41), host_len);
  return true;
}

bool decode_migrate_data(const std::uint8_t* data, std::size_t size,
                         MigrateDataMsg& out) {
  if (size < kMigrateDataHeaderSize ||
      data[0] != static_cast<std::uint8_t>(MsgType::kMigrateData)) {
    return false;
  }
  out.migration_id = get_u64(data + 1);
  out.chunk = get_u64(data + 9);
  out.offset = get_u64(data + 17);
  out.total_bytes = get_u64(data + 25);
  out.checksum = get_u64(data + 33);
  if (data[41] > 1) return false;
  out.last = data[41] == 1;
  const std::size_t payload_len = get_u32(data + 42);
  if (payload_len > kMaxMigrateSlice ||
      size != kMigrateDataHeaderSize + payload_len) {
    return false;
  }
  out.payload.assign(data + kMigrateDataHeaderSize,
                     data + kMigrateDataHeaderSize + payload_len);
  return true;
}

bool decode_migrate_ack(const std::uint8_t* data, std::size_t size,
                        MigrateAckMsg& out) {
  if (size != kMigrateAckPayloadSize ||
      data[0] != static_cast<std::uint8_t>(MsgType::kMigrateAck)) {
    return false;
  }
  out.migration_id = get_u64(data + 1);
  out.status = data[9];
  out.bytes = get_u64(data + 10);
  return true;
}

std::uint64_t migrate_checksum(const std::uint8_t* data,
                               std::size_t size) noexcept {
  // FNV-1a, 64-bit.
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats, EventsRequestMsg& events) {
  if (size == 0) return Decoded::kMalformed;
  switch (static_cast<MsgType>(data[0])) {
    case MsgType::kRequest:
      // Two valid sizes: the v1 frame, and v1 + the trace-context
      // extension.  Anything else (including a partial extension) is
      // malformed.
      if (size != kRequestPayloadSize && size != kRequestTracedPayloadSize) {
        return Decoded::kMalformed;
      }
      request.request_id = get_u64(data + 1);
      request.key = get_u64(data + 9);
      if (size == kRequestTracedPayloadSize) {
        request.trace.trace_id = get_u64(data + 17);
        request.trace.parent_span_id = get_u64(data + 25);
        request.trace.flags = data[33];
      } else {
        request.trace = obs::TraceContext{};
      }
      return Decoded::kRequest;
    case MsgType::kResponse: {
      if (size != kResponsePayloadSize) return Decoded::kMalformed;
      response.request_id = get_u64(data + 1);
      const std::uint8_t status = data[9];
      if (status > static_cast<std::uint8_t>(Status::kRejectUpstreamTimeout)) {
        return Decoded::kMalformed;
      }
      response.status = static_cast<Status>(status);
      response.server = get_u32(data + 10);
      response.wait_steps = get_u32(data + 14);
      return Decoded::kResponse;
    }
    case MsgType::kStats:
      // Two valid sizes: the v1 frame, and v1 + the placement-epoch
      // extension (see encode_stats_request).
      if (size != kStatsPayloadSize && size != kStatsEpochPayloadSize) {
        return Decoded::kMalformed;
      }
      stats.flags = get_u32(data + 1);
      stats.epoch = size == kStatsEpochPayloadSize ? get_u64(data + 5) : 0;
      return Decoded::kStats;
    case MsgType::kStatsResponse:
      // The snapshot body is versioned and parsed by net/stats.hpp; here we
      // only classify, requiring room for the version word that follows the
      // type byte.
      if (size < 5) return Decoded::kMalformed;
      return Decoded::kStatsResponse;
    case MsgType::kMigrate:
      // Repair-plane bodies allocate (host string, payload vector), so
      // they are classified here and parsed on demand by decode_migrate*.
      if (size < kMigrateHeaderSize) return Decoded::kMalformed;
      return Decoded::kMigrate;
    case MsgType::kMigrateData:
      if (size < kMigrateDataHeaderSize) return Decoded::kMalformed;
      return Decoded::kMigrateData;
    case MsgType::kMigrateAck:
      if (size != kMigrateAckPayloadSize) return Decoded::kMalformed;
      return Decoded::kMigrateAck;
    case MsgType::kEvents:
      if (size != kEventsPayloadSize) return Decoded::kMalformed;
      events.flags = get_u32(data + 1);
      events.cursor = get_u64(data + 5);
      if (events.ring() > RingId::kSpans) return Decoded::kMalformed;
      return Decoded::kEvents;
    case MsgType::kEventsResponse:
      // Versioned ring batch parsed by net/events_wire.hpp; classify
      // only, requiring room for the version word.
      if (size < 5) return Decoded::kMalformed;
      return Decoded::kEventsResponse;
  }
  return Decoded::kMalformed;
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats) {
  EventsRequestMsg events_scratch;
  return decode_payload(data, size, request, response, stats, events_scratch);
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response) {
  StatsRequestMsg stats_scratch;
  EventsRequestMsg events_scratch;
  return decode_payload(data, size, request, response, stats_scratch,
                        events_scratch);
}

void FrameDecoder::poison() noexcept {
  // Sticky.  The buffered bytes become unreachable (buffered() reads zero,
  // every accessor short-circuits) but are not shrunk here: a FrameView
  // returned from the same call may still point into the buffer, so the
  // storage is only reclaimed by reset() when the connection slot is
  // recycled.
  error_ = true;
}

void FrameDecoder::reset() noexcept {
  buffer_.clear();
  offset_ = 0;
  error_ = false;
}

bool FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (error_) return false;
  if (offset_ != 0 && offset_ == buffer_.size()) {
    // Fully drained: rewind with no copy, keeping the warmed-up capacity.
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    // Compact once the consumed prefix dominates — amortized O(1) per
    // byte.  memmove within the same storage keeps capacity, so the
    // steady state appends into reserved space with no allocation.
    const std::size_t live = buffer_.size() - offset_;
    std::memmove(buffer_.data(), buffer_.data() + offset_, live);
    buffer_.resize(live);
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
  // Validate eagerly so a poisoned stream is detected at feed time, not
  // only when the caller drains frames.
  if (buffer_.size() - offset_ >= 4) {
    const std::uint32_t length = get_u32(buffer_.data() + offset_);
    if (length == 0 || length > kMaxFramePayload) {
      poison();
      return false;
    }
  }
  return true;
}

bool FrameDecoder::next_view(FrameView& out) {
  if (error_) return false;
  const std::size_t available = buffer_.size() - offset_;
  if (available < 4) return false;
  const std::uint32_t length = get_u32(buffer_.data() + offset_);
  if (length == 0 || length > kMaxFramePayload) {
    poison();
    return false;
  }
  if (available < 4 + static_cast<std::size_t>(length)) return false;
  out.data = buffer_.data() + offset_ + 4;
  out.size = length;
  offset_ += 4 + static_cast<std::size_t>(length);
  if (buffer_.size() - offset_ >= 4) {
    // Eager validation of the next frame header (see feed()).  poison()
    // leaves the storage alone, so the view we are about to return stays
    // valid even when the byte right behind it trips the error.
    const std::uint32_t next_length = get_u32(buffer_.data() + offset_);
    if (next_length == 0 || next_length > kMaxFramePayload) poison();
  }
  return true;
}

bool FrameDecoder::next(std::vector<std::uint8_t>& out) {
  FrameView view;
  if (!next_view(view)) return false;
  out.assign(view.data, view.data + view.size);
  return true;
}

}  // namespace rlb::net
