// Property suite for the Gnutella codec (satellites of the wire-hardening
// PR): seeded-random serialize -> parse round trips over all five
// descriptor types, the wire-limit reject paths (256-result QueryHit,
// embedded NUL), and slicing-invariance of FrameDecoder — the decoded
// message stream and malformed count must be identical no matter how the
// byte stream is chopped, including byte-at-a-time delivery of garbage.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gnutella/codec.hpp"
#include "util/rng.hpp"

namespace aar::gnutella {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string text;
  text.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    // Printable-ish but deliberately including bytes >= 0x80; only NUL is
    // excluded (the wire format cannot carry it).
    text.push_back(static_cast<char>(1 + rng.below(255)));
  }
  return text;
}

Message random_message(util::Rng& rng) {
  const WireGuid guid = make_wire_guid(rng());
  const std::uint8_t ttl = static_cast<std::uint8_t>(1 + rng.below(9));
  switch (rng.below(5)) {
    case 0:
      return make_ping(guid, ttl);
    case 1: {
      Pong pong;
      pong.port = static_cast<std::uint16_t>(rng.below(65536));
      pong.ip = static_cast<std::uint32_t>(rng());
      pong.shared_files = static_cast<std::uint32_t>(rng.below(100000));
      pong.shared_kb = static_cast<std::uint32_t>(rng.below(1u << 30));
      return make_pong(guid, ttl, pong);
    }
    case 2:
      return make_query(guid, ttl,
                        static_cast<std::uint16_t>(rng.below(65536)),
                        random_text(rng, 64));
    case 3: {
      std::vector<HitResult> results(rng.below(9));
      for (HitResult& result : results) {
        result.file_index = static_cast<std::uint32_t>(rng());
        result.file_size = static_cast<std::uint32_t>(rng());
        result.file_name = random_text(rng, 40);
      }
      Message hit = make_query_hit(guid, ttl, make_wire_guid(rng()),
                                   std::move(results));
      hit.query_hit.port = static_cast<std::uint16_t>(rng.below(65536));
      hit.query_hit.ip = static_cast<std::uint32_t>(rng());
      hit.query_hit.speed = static_cast<std::uint32_t>(rng.below(10000));
      return hit;
    }
    default: {
      Message push;
      push.header.guid = guid;
      push.header.type = MessageType::kPush;
      push.header.ttl = ttl;
      push.opaque.resize(rng.below(64));
      for (std::uint8_t& byte : push.opaque) {
        byte = static_cast<std::uint8_t>(rng.below(256));
      }
      return push;
    }
  }
}

void expect_equal(const Message& a, const Message& b) {
  ASSERT_EQ(a.header.type, b.header.type);
  EXPECT_EQ(a.header.guid, b.header.guid);
  EXPECT_EQ(a.header.ttl, b.header.ttl);
  EXPECT_EQ(a.header.hops, b.header.hops);
  switch (a.header.type) {
    case MessageType::kPing:
      break;
    case MessageType::kPong:
      EXPECT_EQ(a.pong.port, b.pong.port);
      EXPECT_EQ(a.pong.ip, b.pong.ip);
      EXPECT_EQ(a.pong.shared_files, b.pong.shared_files);
      EXPECT_EQ(a.pong.shared_kb, b.pong.shared_kb);
      break;
    case MessageType::kQuery:
      EXPECT_EQ(a.query.min_speed, b.query.min_speed);
      EXPECT_EQ(a.query.search, b.query.search);
      break;
    case MessageType::kQueryHit: {
      EXPECT_EQ(a.query_hit.port, b.query_hit.port);
      EXPECT_EQ(a.query_hit.ip, b.query_hit.ip);
      EXPECT_EQ(a.query_hit.speed, b.query_hit.speed);
      EXPECT_EQ(a.query_hit.servent_guid, b.query_hit.servent_guid);
      ASSERT_EQ(a.query_hit.results.size(), b.query_hit.results.size());
      for (std::size_t i = 0; i < a.query_hit.results.size(); ++i) {
        EXPECT_EQ(a.query_hit.results[i].file_index,
                  b.query_hit.results[i].file_index);
        EXPECT_EQ(a.query_hit.results[i].file_size,
                  b.query_hit.results[i].file_size);
        EXPECT_EQ(a.query_hit.results[i].file_name,
                  b.query_hit.results[i].file_name);
      }
      break;
    }
    case MessageType::kPush:
      EXPECT_EQ(a.opaque, b.opaque);
      break;
  }
}

TEST(CodecProperties, RandomMessagesRoundTripAllTypes) {
  util::Rng rng(0xc0dec);
  for (int trial = 0; trial < 500; ++trial) {
    const Message original = random_message(rng);
    const auto bytes = serialize(original);
    const ParseResult result = parse(bytes);
    ASSERT_TRUE(result.ok())
        << "trial " << trial << ": " << to_string(result.error);
    EXPECT_EQ(result.consumed, bytes.size());
    expect_equal(original, result.message);
  }
}

// --- wire-limit reject paths ---------------------------------------------

std::vector<HitResult> hit_results(std::size_t count) {
  std::vector<HitResult> results(count);
  for (std::size_t i = 0; i < count; ++i) {
    results[i] = {.file_index = static_cast<std::uint32_t>(i),
                  .file_size = 1,
                  .file_name = std::string("f").append(std::to_string(i))};
  }
  return results;
}

TEST(CodecProperties, QueryHitAtWireMaximumRoundTrips) {
  const Message hit = make_query_hit(make_wire_guid(1), 4, make_wire_guid(2),
                                     hit_results(kMaxHitResults));
  const ParseResult result = parse(serialize(hit));
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  ASSERT_EQ(result.message.query_hit.results.size(), kMaxHitResults);
  EXPECT_EQ(result.message.query_hit.results.back().file_name, "f254");
  EXPECT_EQ(result.message.query_hit.servent_guid, make_wire_guid(2));
}

TEST(CodecProperties, QueryHitBeyondWireMaximumIsRejected) {
  // Regression: 256 results used to truncate to a one-byte count of 0 and
  // the parser then read the first result's bytes as the servent GUID.
  const Message hit = make_query_hit(make_wire_guid(1), 4, make_wire_guid(2),
                                     hit_results(kMaxHitResults + 1));
  EXPECT_THROW((void)serialize(hit), std::invalid_argument);
}

TEST(CodecProperties, EmbeddedNulInQueryIsRejected) {
  // Regression: "abc\0def" used to serialize, parse back as "abc", and the
  // capture recorded a different QueryKey than was sent.
  const std::string with_nul = std::string("abc\0def", 7);
  EXPECT_THROW((void)make_query(make_wire_guid(1), 4, 0, with_nul),
               std::invalid_argument);
  Message query = make_query(make_wire_guid(1), 4, 0, "abc");
  query.query.search = with_nul;
  EXPECT_THROW((void)serialize(query), std::invalid_argument);
}

TEST(CodecProperties, EmbeddedNulInHitFileNameIsRejected) {
  Message hit = make_query_hit(make_wire_guid(1), 4, make_wire_guid(2),
                               hit_results(1));
  hit.query_hit.results[0].file_name = std::string("a\0b", 3);
  EXPECT_THROW((void)serialize(hit), std::invalid_argument);
}

// --- FrameDecoder slicing invariance -------------------------------------

struct DecodedStream {
  std::vector<std::vector<std::uint8_t>> frames;  ///< re-serialized messages
  std::uint64_t malformed = 0;
};

/// Feed `bytes` in chunks cut at `splits` (ascending offsets) and drain the
/// decoder after every chunk.
DecodedStream decode_sliced(std::span<const std::uint8_t> bytes,
                            const std::vector<std::size_t>& splits) {
  FrameDecoder decoder;
  DecodedStream stream;
  std::size_t start = 0;
  auto drain = [&] {
    while (auto message = decoder.next()) {
      stream.frames.push_back(serialize(*message));
    }
  };
  for (const std::size_t split : splits) {
    decoder.feed(bytes.subspan(start, split - start));
    start = split;
    drain();
  }
  decoder.feed(bytes.subspan(start));
  drain();
  stream.malformed = decoder.malformed_frames();
  return stream;
}

/// A stream mixing valid frames with three kinds of garbage: unknown
/// descriptor types with a declared payload, an oversized payload, and a
/// structurally malformed (unterminated) query.
std::vector<std::uint8_t> garbage_stream(util::Rng& rng,
                                         std::size_t* valid_out) {
  std::vector<std::uint8_t> bytes;
  std::size_t valid = 0;
  for (int i = 0; i < 40; ++i) {
    switch (rng.below(4)) {
      case 0: {  // unknown type carrying a payload that must be skipped
        std::vector<std::uint8_t> frame(Header::kSize);
        const WireGuid guid = make_wire_guid(rng());
        std::copy(guid.begin(), guid.end(), frame.begin());
        frame[16] = 0x31;  // not a 0.4 descriptor
        frame[17] = 1;
        frame[18] = 0;
        const std::uint32_t declared =
            static_cast<std::uint32_t>(rng.below(48));
        frame[19] = static_cast<std::uint8_t>(declared & 0xff);
        for (std::uint32_t b = 0; b < declared; ++b) {
          frame.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        bytes.insert(bytes.end(), frame.begin(), frame.end());
        break;
      }
      case 1: {  // malformed payload: query whose string never terminates
        Message query = make_query(make_wire_guid(rng()), 3, 0, "ok");
        std::vector<std::uint8_t> frame = serialize(query);
        frame.back() = 'x';  // overwrite the terminating NUL
        bytes.insert(bytes.end(), frame.begin(), frame.end());
        break;
      }
      default: {
        const Message message = random_message(rng);
        const std::vector<std::uint8_t> frame = serialize(message);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
        ++valid;
        break;
      }
    }
  }
  if (valid_out != nullptr) *valid_out = valid;
  return bytes;
}

TEST(CodecProperties, DecodedStreamIsSlicingInvariant) {
  util::Rng rng(0x51ce);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t valid = 0;
    const std::vector<std::uint8_t> bytes = garbage_stream(rng, &valid);
    const DecodedStream whole = decode_sliced(bytes, {});
    EXPECT_EQ(whole.frames.size(), valid);

    // Random split points, a different set per trial.
    std::vector<std::size_t> splits;
    for (std::size_t offset = 0; offset < bytes.size();) {
      offset += 1 + rng.below(37);
      if (offset < bytes.size()) splits.push_back(offset);
    }
    const DecodedStream sliced = decode_sliced(bytes, splits);
    EXPECT_EQ(sliced.frames, whole.frames) << "trial " << trial;
    EXPECT_EQ(sliced.malformed, whole.malformed) << "trial " << trial;
  }
}

TEST(CodecProperties, ByteAtATimeGarbageMatchesBulkFeed) {
  // The torn-stream regression: resync used to double-parse and the
  // malformed count depended on chunking.  One byte at a time is the
  // worst case — every truncation state is visited.
  util::Rng rng(0xb17e);
  std::size_t valid = 0;
  const std::vector<std::uint8_t> bytes = garbage_stream(rng, &valid);
  const DecodedStream whole = decode_sliced(bytes, {});

  std::vector<std::size_t> every_byte;
  for (std::size_t offset = 1; offset < bytes.size(); ++offset) {
    every_byte.push_back(offset);
  }
  const DecodedStream trickled = decode_sliced(bytes, every_byte);
  EXPECT_EQ(trickled.frames, whole.frames);
  EXPECT_EQ(trickled.malformed, whole.malformed);
  EXPECT_GT(whole.malformed, 0u);  // the stream really contained garbage
}

TEST(CodecProperties, OversizedDeclaredLengthResyncsBounded) {
  // A frame declaring a huge payload must not stall the stream forever:
  // resync skips at most kMaxPayload, then recovers on later frames.
  std::vector<std::uint8_t> bytes(Header::kSize);
  const WireGuid guid = make_wire_guid(7);
  std::copy(guid.begin(), guid.end(), bytes.begin());
  bytes[16] = 0x00;  // ping
  bytes[17] = 1;
  // declared length = kMaxPayload + 1 (little endian)
  const std::uint32_t declared = kMaxPayload + 1;
  bytes[19] = static_cast<std::uint8_t>(declared & 0xff);
  bytes[20] = static_cast<std::uint8_t>((declared >> 8) & 0xff);
  bytes[21] = static_cast<std::uint8_t>((declared >> 16) & 0xff);
  bytes[22] = static_cast<std::uint8_t>((declared >> 24) & 0xff);
  bytes.resize(Header::kSize + kMaxPayload, 0xaa);  // the skipped junk
  const std::vector<std::uint8_t> good =
      serialize(make_query(make_wire_guid(8), 3, 0, "recovered"));
  bytes.insert(bytes.end(), good.begin(), good.end());

  FrameDecoder decoder;
  decoder.feed(bytes);
  const auto message = decoder.next();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->query.search, "recovered");
  EXPECT_EQ(decoder.malformed_frames(), 1u);
}

}  // namespace
}  // namespace aar::gnutella
