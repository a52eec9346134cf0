#include "gnutella/codec.hpp"

#include <gtest/gtest.h>

namespace aar::gnutella {
namespace {

// --- codec round trips ---------------------------------------------------------

TEST(Codec, QueryRoundTrip) {
  const Message original = make_query(make_wire_guid(1), 7, 100, "led zeppelin");
  const auto bytes = serialize(original);
  const ParseResult result = parse(bytes);
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  EXPECT_EQ(result.consumed, bytes.size());
  EXPECT_EQ(result.message.header.guid, original.header.guid);
  EXPECT_EQ(result.message.header.type, MessageType::kQuery);
  EXPECT_EQ(result.message.header.ttl, 7);
  EXPECT_EQ(result.message.query.min_speed, 100);
  EXPECT_EQ(result.message.query.search, "led zeppelin");
}

TEST(Codec, EmptySearchStringRoundTrips) {
  const Message original = make_query(make_wire_guid(2), 3, 0, "");
  const ParseResult result = parse(serialize(original));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.message.query.search, "");
}

TEST(Codec, QueryHitRoundTrip) {
  std::vector<HitResult> results{
      {.file_index = 10, .file_size = 1'024, .file_name = "song.mp3"},
      {.file_index = 99, .file_size = 2'048, .file_name = "album/track 02.mp3"},
  };
  Message original =
      make_query_hit(make_wire_guid(3), 5, make_wire_guid(77), results);
  original.query_hit.port = 6347;
  original.query_hit.ip = 0x0a000001;
  original.query_hit.speed = 56;
  const ParseResult parsed = parse(serialize(original));
  ASSERT_TRUE(parsed.ok()) << to_string(parsed.error);
  const QueryHit& hit = parsed.message.query_hit;
  ASSERT_EQ(hit.results.size(), 2u);
  EXPECT_EQ(hit.results[0].file_name, "song.mp3");
  EXPECT_EQ(hit.results[1].file_index, 99u);
  EXPECT_EQ(hit.results[1].file_name, "album/track 02.mp3");
  EXPECT_EQ(hit.servent_guid, make_wire_guid(77));
  EXPECT_EQ(hit.port, 6347);
  EXPECT_EQ(hit.ip, 0x0a000001u);
}

TEST(Codec, PingPongRoundTrip) {
  const Message ping = make_ping(make_wire_guid(4), 7);
  const ParseResult ping_result = parse(serialize(ping));
  ASSERT_TRUE(ping_result.ok());
  EXPECT_EQ(ping_result.message.header.type, MessageType::kPing);
  EXPECT_EQ(ping_result.message.header.payload_length, 0u);

  Pong pong{.port = 6346, .ip = 0x7f000001, .shared_files = 321,
            .shared_kb = 65'536};
  const ParseResult pong_result =
      parse(serialize(make_pong(make_wire_guid(4), 6, pong)));
  ASSERT_TRUE(pong_result.ok());
  EXPECT_EQ(pong_result.message.pong.shared_files, 321u);
  EXPECT_EQ(pong_result.message.pong.shared_kb, 65'536u);
}

TEST(Codec, TruncatedHeaderReported) {
  const auto bytes = serialize(make_ping(make_wire_guid(5), 7));
  const ParseResult result =
      parse(std::span(bytes).subspan(0, Header::kSize - 1));
  EXPECT_EQ(result.error, ParseError::kTruncatedHeader);
}

TEST(Codec, TruncatedPayloadReported) {
  const auto bytes = serialize(make_query(make_wire_guid(6), 7, 0, "abc"));
  const ParseResult result = parse(std::span(bytes).first(bytes.size() - 2));
  EXPECT_EQ(result.error, ParseError::kTruncatedPayload);
}

TEST(Codec, UnknownTypeReported) {
  auto bytes = serialize(make_ping(make_wire_guid(7), 7));
  bytes[16] = 0x55;  // not a 0.4 descriptor
  EXPECT_EQ(parse(bytes).error, ParseError::kUnknownType);
}

TEST(Codec, OversizedPayloadRejected) {
  auto bytes = serialize(make_ping(make_wire_guid(8), 7));
  bytes[19] = 0xff;  // payload length bytes (LE)
  bytes[20] = 0xff;
  bytes[21] = 0xff;
  bytes[22] = 0x0f;
  EXPECT_EQ(parse(bytes).error, ParseError::kOversizedPayload);
}

TEST(Codec, UnterminatedQueryStringIsMalformed) {
  Message query = make_query(make_wire_guid(9), 7, 0, "abc");
  auto bytes = serialize(query);
  bytes.pop_back();           // drop the NUL
  bytes[19] -= 1;             // fix declared payload length
  const ParseResult result = parse(bytes);
  EXPECT_EQ(result.error, ParseError::kMalformedPayload);
}

TEST(Codec, FoldGuidDistinguishes) {
  EXPECT_EQ(fold_guid(make_wire_guid(1)), fold_guid(make_wire_guid(1)));
  EXPECT_NE(fold_guid(make_wire_guid(1)), fold_guid(make_wire_guid(2)));
}

// --- frame decoder ---------------------------------------------------------------

TEST(FrameDecoder, ReassemblesSplitStream) {
  const auto a = serialize(make_query(make_wire_guid(10), 7, 0, "first"));
  const auto b = serialize(make_query(make_wire_guid(11), 7, 0, "second"));
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameDecoder decoder;
  // Feed in awkward 5-byte chunks.
  for (std::size_t i = 0; i < stream.size(); i += 5) {
    decoder.feed(std::span(stream).subspan(i, std::min<std::size_t>(
                                                  5, stream.size() - i)));
  }
  const auto first = decoder.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->query.search, "first");
  const auto second = decoder.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->query.search, "second");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.malformed_frames(), 0u);
}

TEST(FrameDecoder, WaitsForMoreBytes) {
  const auto bytes = serialize(make_query(make_wire_guid(12), 7, 0, "partial"));
  FrameDecoder decoder;
  decoder.feed(std::span(bytes).first(10));
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed(std::span(bytes).subspan(10));
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(FrameDecoder, ResynchronizesPastGarbageFrames) {
  auto garbage = serialize(make_ping(make_wire_guid(13), 7));
  garbage[16] = 0x77;  // unknown type
  const auto good = serialize(make_query(make_wire_guid(14), 7, 0, "ok"));
  FrameDecoder decoder;
  decoder.feed(garbage);
  decoder.feed(good);
  const auto message = decoder.next();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->query.search, "ok");
  EXPECT_EQ(decoder.malformed_frames(), 1u);
}

TEST(Codec, NormalizeQueryIsCaseInsensitive) {
  EXPECT_EQ(normalize_query("Led Zeppelin"), normalize_query("led zeppelin"));
  EXPECT_NE(normalize_query("a"), normalize_query("b"));
}

}  // namespace
}  // namespace aar::gnutella
