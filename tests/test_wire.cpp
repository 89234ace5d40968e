// Tests for the serving wire protocol (net/wire.hpp): frame encoding,
// payload decoding, and incremental stream reassembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/wire.hpp"

namespace rlb::net {
namespace {

TEST(Wire, RequestRoundTrips) {
  const RequestMsg original{0x0123456789abcdefULL, 0xfedcba9876543210ULL, {}};
  std::vector<std::uint8_t> wire;
  encode_request(original, wire);
  ASSERT_EQ(wire.size(), 4 + kRequestPayloadSize);
  // Little-endian length prefix, then the type byte.
  EXPECT_EQ(wire[0], kRequestPayloadSize);
  EXPECT_EQ(wire[1], 0u);
  EXPECT_EQ(wire[4], static_cast<std::uint8_t>(MsgType::kRequest));

  RequestMsg request;
  ResponseMsg response;
  const Decoded decoded =
      decode_payload(wire.data() + 4, kRequestPayloadSize, request, response);
  ASSERT_EQ(decoded, Decoded::kRequest);
  EXPECT_EQ(request.request_id, original.request_id);
  EXPECT_EQ(request.key, original.key);
}

TEST(Wire, ResponseRoundTrips) {
  ResponseMsg original;
  original.request_id = 77;
  original.status = Status::kReject;
  original.server = 0xdeadbeef;
  original.wait_steps = 12345;
  std::vector<std::uint8_t> wire;
  encode_response(original, wire);
  ASSERT_EQ(wire.size(), 4 + kResponsePayloadSize);

  RequestMsg request;
  ResponseMsg response;
  const Decoded decoded =
      decode_payload(wire.data() + 4, kResponsePayloadSize, request, response);
  ASSERT_EQ(decoded, Decoded::kResponse);
  EXPECT_EQ(response.request_id, 77u);
  EXPECT_EQ(response.status, Status::kReject);
  EXPECT_EQ(response.server, 0xdeadbeefu);
  EXPECT_EQ(response.wait_steps, 12345u);
}

// Golden bytes: the encoders append to what `out` already holds, and every
// field is little-endian in a fixed position.
TEST(Wire, RequestEncodesGoldenBytes) {
  std::vector<std::uint8_t> wire = {0xaa};
  encode_request({0x0123456789abcdefULL, 0xfedcba9876543210ULL, {}}, wire);
  const std::vector<std::uint8_t> golden = {
      0xaa,                                            // already there
      0x11, 0x00, 0x00, 0x00,                          // payload size 17
      0x01,                                            // REQUEST
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // request_id
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,  // key
  };
  EXPECT_EQ(wire, golden);
}

TEST(Wire, TracedRequestEncodesGoldenBytes) {
  RequestMsg msg{0x0123456789abcdefULL, 0xfedcba9876543210ULL, {}};
  msg.trace.trace_id = 0x1122334455667788ULL;
  msg.trace.parent_span_id = 0x99aabbccddeeff00ULL;
  msg.trace.flags = 0x01;
  std::vector<std::uint8_t> wire;
  encode_request(msg, wire);
  const std::vector<std::uint8_t> golden = {
      0x22, 0x00, 0x00, 0x00,                          // payload size 34
      0x01,                                            // REQUEST
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // request_id
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,  // key
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // trace_id
      0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99,  // parent_span_id
      0x01,                                            // flags
  };
  EXPECT_EQ(wire, golden);
}

TEST(Wire, ResponseEncodesGoldenBytes) {
  ResponseMsg msg;
  msg.request_id = 0x0807060504030201ULL;
  msg.status = Status::kReject;
  msg.server = 0xdeadbeef;
  msg.wait_steps = 12345;
  std::vector<std::uint8_t> wire = {0xaa, 0xbb};
  encode_response(msg, wire);
  const std::vector<std::uint8_t> golden = {
      0xaa, 0xbb,                                      // already there
      0x12, 0x00, 0x00, 0x00,                          // payload size 18
      0x02,                                            // RESPONSE
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // request_id
      0x01,                                            // status: reject
      0xef, 0xbe, 0xad, 0xde,                          // server
      0x39, 0x30, 0x00, 0x00,                          // wait_steps
  };
  EXPECT_EQ(wire, golden);
}

TEST(Wire, DecodeRejectsBadPayloads) {
  RequestMsg request;
  ResponseMsg response;
  // Empty payload.
  EXPECT_EQ(decode_payload(nullptr, 0, request, response), Decoded::kMalformed);
  // Unknown type byte.
  std::vector<std::uint8_t> unknown(kRequestPayloadSize, 0);
  unknown[0] = 99;
  EXPECT_EQ(decode_payload(unknown.data(), unknown.size(), request, response),
            Decoded::kMalformed);
  // Right type, wrong size.
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{1, 2, {}}, wire);
  EXPECT_EQ(decode_payload(wire.data() + 4, kRequestPayloadSize - 1, request,
                           response),
            Decoded::kMalformed);
  EXPECT_EQ(decode_payload(wire.data() + 4, kRequestPayloadSize + 1, request,
                           response),
            Decoded::kMalformed);
}

TEST(Wire, DecoderReassemblesByteByByte) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 5; ++i) {
    encode_request(RequestMsg{i, i * 1000, {}}, wire);
  }
  FrameDecoder decoder;
  std::vector<std::uint8_t> payload;
  std::uint64_t seen = 0;
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(decoder.feed(&byte, 1));
    while (decoder.next(payload)) {
      RequestMsg request;
      ResponseMsg response;
      ASSERT_EQ(decode_payload(payload.data(), payload.size(), request,
                               response),
                Decoded::kRequest);
      EXPECT_EQ(request.request_id, seen);
      EXPECT_EQ(request.key, seen * 1000);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.error());
}

TEST(Wire, DecoderHandlesCoalescedFrames) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 100; ++i) {
    encode_response(ResponseMsg{i, Status::kOk, 0, 0}, wire);
  }
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size()));
  std::vector<std::uint8_t> payload;
  std::size_t frames = 0;
  while (decoder.next(payload)) ++frames;
  EXPECT_EQ(frames, 100u);
}

TEST(Wire, ZeroLengthFramePoisons) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(zeros, 4));
  EXPECT_TRUE(decoder.error());
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decoder.next(payload));
  // Poisoned decoders stay poisoned.
  std::vector<std::uint8_t> valid;
  encode_request(RequestMsg{1, 1, {}}, valid);
  EXPECT_FALSE(decoder.feed(valid.data(), valid.size()));
}

TEST(Wire, OversizeFramePoisons) {
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(prefix, 4));
  EXPECT_TRUE(decoder.error());
}

TEST(Wire, PartialHeaderDoesNotPoison) {
  // A split length prefix must wait for its remaining bytes, not error.
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{42, 43, {}}, wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire.data(), 2));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decoder.next(payload));
  EXPECT_FALSE(decoder.error());
  ASSERT_TRUE(decoder.feed(wire.data() + 2, wire.size() - 2));
  EXPECT_TRUE(decoder.next(payload));
}

TEST(Wire, MidStreamPoisonDeliversEarlierFrames) {
  // Two valid frames followed by a zero-length header in one feed: both
  // valid frames must come out, then the decoder poisons and stays
  // poisoned for every later feed/next.
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{1, 10, {}}, wire);
  encode_request(RequestMsg{2, 20, {}}, wire);
  wire.insert(wire.end(), {0, 0, 0, 0});
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size()));
  std::vector<std::uint8_t> payload;
  RequestMsg request;
  ResponseMsg response;
  ASSERT_TRUE(decoder.next(payload));
  ASSERT_EQ(decode_payload(payload.data(), payload.size(), request, response),
            Decoded::kRequest);
  EXPECT_EQ(request.request_id, 1u);
  ASSERT_TRUE(decoder.next(payload));
  ASSERT_EQ(decode_payload(payload.data(), payload.size(), request, response),
            Decoded::kRequest);
  EXPECT_EQ(request.request_id, 2u);
  EXPECT_FALSE(decoder.next(payload));
  EXPECT_TRUE(decoder.error());
  EXPECT_EQ(decoder.buffered(), 0u);  // poisoned: nothing is reachable
  std::vector<std::uint8_t> valid;
  encode_request(RequestMsg{3, 30, {}}, valid);
  EXPECT_FALSE(decoder.feed(valid.data(), valid.size()));
  EXPECT_FALSE(decoder.next(payload));
}

TEST(Wire, ResetReclaimsPoisonedDecoder) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(zeros, 4));
  ASSERT_TRUE(decoder.error());
  decoder.reset();
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.buffered(), 0u);
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{7, 70, {}}, wire);
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size()));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(decoder.next(payload));
  RequestMsg request;
  ResponseMsg response;
  ASSERT_EQ(decode_payload(payload.data(), payload.size(), request, response),
            Decoded::kRequest);
  EXPECT_EQ(request.request_id, 7u);
}

TEST(Wire, NextViewIsZeroCopy) {
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{11, 12, {}}, wire);
  encode_response(ResponseMsg{13, Status::kOk, 1, 2}, wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size()));
  FrameView view{};
  ASSERT_TRUE(decoder.next_view(view));
  ASSERT_EQ(view.size, kRequestPayloadSize);
  EXPECT_EQ(view.data[0], static_cast<std::uint8_t>(MsgType::kRequest));
  ASSERT_TRUE(decoder.next_view(view));
  ASSERT_EQ(view.size, kResponsePayloadSize);
  EXPECT_EQ(view.data[0], static_cast<std::uint8_t>(MsgType::kResponse));
  EXPECT_FALSE(decoder.next_view(view));
  EXPECT_FALSE(decoder.error());
}

TEST(Wire, TruncatedPayloadWaitsWithoutError) {
  // A complete header with only part of its payload must neither deliver
  // nor poison — the frame completes on the next feed.
  std::vector<std::uint8_t> wire;
  encode_request(RequestMsg{5, 50, {}}, wire);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire.data(), wire.size() - 3));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decoder.next(payload));
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.buffered(), wire.size() - 3);
  ASSERT_TRUE(decoder.feed(wire.data() + wire.size() - 3, 3));
  EXPECT_TRUE(decoder.next(payload));
}

TEST(Wire, DecoderCompactionKeepsStreamIntact) {
  // Push enough traffic through to trigger the internal buffer compaction
  // and verify no frame is lost or reordered across it.
  FrameDecoder decoder;
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> payload;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (int round = 0; round < 200; ++round) {
    wire.clear();
    for (int i = 0; i < 50; ++i) {
      encode_request(RequestMsg{sent++, 0, {}}, wire);
    }
    // Feed in odd-sized slices so frames straddle feed boundaries.
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t slice = std::min<std::size_t>(37, wire.size() - offset);
      ASSERT_TRUE(decoder.feed(wire.data() + offset, slice));
      offset += slice;
      while (decoder.next(payload)) {
        RequestMsg request;
        ResponseMsg response;
        ASSERT_EQ(decode_payload(payload.data(), payload.size(), request,
                                 response),
                  Decoded::kRequest);
        ASSERT_EQ(request.request_id, received);
        ++received;
      }
    }
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(decoder.buffered(), 0u);
}

}  // namespace
}  // namespace rlb::net
