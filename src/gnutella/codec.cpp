#include "gnutella/codec.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aar::gnutella {

namespace {

using util::get_u16;
using util::get_u32;
using util::put_u16;
using util::put_u32;

/// A NUL-terminated wire string must not itself contain NUL: the parser
/// would stop at the embedded one and the frame would round-trip lossily
/// (the capture would record a different QueryKey than was sent).
void require_no_nul(const std::string& text, const char* what) {
  if (text.find('\0') != std::string::npos) {
    throw std::invalid_argument(std::string(what) +
                                " contains an embedded NUL");
  }
}

std::vector<std::uint8_t> serialize_payload(const Message& message) {
  std::vector<std::uint8_t> payload;
  switch (message.header.type) {
    case MessageType::kPing:
      break;  // empty payload
    case MessageType::kPong:
      put_u16(payload, message.pong.port);
      put_u32(payload, message.pong.ip);
      put_u32(payload, message.pong.shared_files);
      put_u32(payload, message.pong.shared_kb);
      break;
    case MessageType::kQuery:
      require_no_nul(message.query.search, "query search");
      put_u16(payload, message.query.min_speed);
      payload.insert(payload.end(), message.query.search.begin(),
                     message.query.search.end());
      payload.push_back(0);
      break;
    case MessageType::kQueryHit: {
      const QueryHit& hit = message.query_hit;
      // The wire count is one byte: 256 results used to serialize as count 0
      // and the parser desynced from the trailing servent GUID.
      if (hit.results.size() > kMaxHitResults) {
        throw std::invalid_argument("QueryHit carries " +
                                    std::to_string(hit.results.size()) +
                                    " results; the wire maximum is 255");
      }
      payload.push_back(static_cast<std::uint8_t>(hit.results.size()));
      put_u16(payload, hit.port);
      put_u32(payload, hit.ip);
      put_u32(payload, hit.speed);
      for (const HitResult& result : hit.results) {
        require_no_nul(result.file_name, "hit file name");
        put_u32(payload, result.file_index);
        put_u32(payload, result.file_size);
        payload.insert(payload.end(), result.file_name.begin(),
                       result.file_name.end());
        payload.push_back(0);
        payload.push_back(0);  // double-NUL terminator (0.4 wire format)
      }
      payload.insert(payload.end(), hit.servent_guid.begin(),
                     hit.servent_guid.end());
      break;
    }
    case MessageType::kPush:
      payload = message.opaque;
      break;
  }
  return payload;
}

ParseError parse_payload(Message& message,
                         std::span<const std::uint8_t> payload) {
  switch (message.header.type) {
    case MessageType::kPing:
      return ParseError::kNone;  // any payload tolerated (GGEP extensions)
    case MessageType::kPong:
      if (payload.size() < Pong::kSize) return ParseError::kMalformedPayload;
      message.pong.port = get_u16(payload.subspan(0, 2).data());
      message.pong.ip = get_u32(payload.subspan(2, 4).data());
      message.pong.shared_files = get_u32(payload.subspan(6, 4).data());
      message.pong.shared_kb = get_u32(payload.subspan(10, 4).data());
      return ParseError::kNone;
    case MessageType::kQuery: {
      if (payload.size() < 3) return ParseError::kMalformedPayload;
      message.query.min_speed = get_u16(payload.subspan(0, 2).data());
      const auto text = payload.subspan(2);
      const auto nul = std::find(text.begin(), text.end(), std::uint8_t{0});
      if (nul == text.end()) return ParseError::kMalformedPayload;
      message.query.search.assign(text.begin(), nul);
      return ParseError::kNone;
    }
    case MessageType::kQueryHit: {
      if (payload.size() < 11 + 16) return ParseError::kMalformedPayload;
      const std::size_t count = payload[0];
      QueryHit& hit = message.query_hit;
      hit.port = get_u16(payload.subspan(1, 2).data());
      hit.ip = get_u32(payload.subspan(3, 4).data());
      hit.speed = get_u32(payload.subspan(7, 4).data());
      std::size_t cursor = 11;
      hit.results.clear();
      for (std::size_t i = 0; i < count; ++i) {
        if (cursor + 8 >= payload.size()) return ParseError::kMalformedPayload;
        HitResult result;
        result.file_index = get_u32(payload.subspan(cursor, 4).data());
        result.file_size = get_u32(payload.subspan(cursor + 4, 4).data());
        cursor += 8;
        const auto rest = payload.subspan(cursor);
        const auto nul = std::find(rest.begin(), rest.end(), std::uint8_t{0});
        if (nul == rest.end()) return ParseError::kMalformedPayload;
        result.file_name.assign(rest.begin(), nul);
        const auto name_len = static_cast<std::size_t>(nul - rest.begin());
        // Skip name + double NUL.
        if (cursor + name_len + 2 > payload.size()) {
          return ParseError::kMalformedPayload;
        }
        cursor += name_len + 2;
        hit.results.push_back(std::move(result));
      }
      if (cursor + 16 > payload.size()) return ParseError::kMalformedPayload;
      std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(cursor), 16,
                  hit.servent_guid.begin());
      return ParseError::kNone;
    }
    case MessageType::kPush:
      message.opaque.assign(payload.begin(), payload.end());
      return ParseError::kNone;
  }
  return ParseError::kUnknownType;
}

}  // namespace

std::string to_string(ParseError error) {
  switch (error) {
    case ParseError::kNone: return "none";
    case ParseError::kTruncatedHeader: return "truncated header";
    case ParseError::kUnknownType: return "unknown descriptor type";
    case ParseError::kTruncatedPayload: return "truncated payload";
    case ParseError::kMalformedPayload: return "malformed payload";
    case ParseError::kOversizedPayload: return "oversized payload";
  }
  return "?";
}

std::vector<std::uint8_t> serialize(const Message& message) {
  const std::vector<std::uint8_t> payload = serialize_payload(message);
  std::vector<std::uint8_t> out;
  out.reserve(Header::kSize + payload.size());
  out.insert(out.end(), message.header.guid.begin(), message.header.guid.end());
  out.push_back(static_cast<std::uint8_t>(message.header.type));
  out.push_back(message.header.ttl);
  out.push_back(message.header.hops);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

ParseResult parse(std::span<const std::uint8_t> bytes) {
  ParseResult result;
  if (bytes.size() < Header::kSize) {
    result.error = ParseError::kTruncatedHeader;
    return result;
  }
  Header& header = result.message.header;
  std::copy_n(bytes.begin(), 16, header.guid.begin());
  const std::uint8_t raw_type = bytes[16];
  header.ttl = bytes[17];
  header.hops = bytes[18];
  header.payload_length = get_u32(bytes.subspan(19, 4).data());
  if (!is_known_type(raw_type)) {
    result.error = ParseError::kUnknownType;
    result.consumed = Header::kSize;  // caller may resync past the payload
    return result;
  }
  header.type = static_cast<MessageType>(raw_type);
  if (header.payload_length > kMaxPayload) {
    result.error = ParseError::kOversizedPayload;
    result.consumed = Header::kSize;
    return result;
  }
  if (bytes.size() < Header::kSize + header.payload_length) {
    result.error = ParseError::kTruncatedPayload;
    return result;
  }
  const auto payload = bytes.subspan(Header::kSize, header.payload_length);
  result.error = parse_payload(result.message, payload);
  result.consumed = Header::kSize + header.payload_length;
  return result;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
}

std::optional<Message> FrameDecoder::next() {
  for (;;) {
    // Finish any pending resync first: the tail of a malformed frame may
    // not have arrived yet, so its bytes are discarded as they stream in.
    if (skip_ > 0) {
      const std::size_t take = std::min(skip_, buffer_.size() - offset_);
      offset_ += take;
      skip_ -= take;
      if (skip_ > 0) {
        compact();
        return std::nullopt;  // the rest of the bad frame is still in flight
      }
    }
    const std::span<const std::uint8_t> pending(buffer_.data() + offset_,
                                                buffer_.size() - offset_);
    const ParseResult result = parse(pending);
    switch (result.error) {
      case ParseError::kNone:
        offset_ += result.consumed;
        compact();
        return result.message;
      case ParseError::kTruncatedHeader:
      case ParseError::kTruncatedPayload:
        compact();
        return std::nullopt;  // wait for more bytes
      case ParseError::kUnknownType:
      case ParseError::kOversizedPayload:
        // Resynchronize past header + declared payload.  The declared length
        // was already parsed into result's header (before the type check),
        // so the frame is never re-parsed; clamping to kMaxPayload bounds
        // how far a garbage length can stall the stream.
        ++malformed_;
        skip_ = Header::kSize +
                std::min(result.message.header.payload_length, kMaxPayload);
        break;
      case ParseError::kMalformedPayload:
        // Frame boundary is trustworthy (length checked, payload fully
        // buffered): parse always sets consumed here — skip it whole.
        ++malformed_;
        skip_ = result.consumed;
        break;
    }
  }
}

WireGuid make_wire_guid(std::uint64_t seed) noexcept {
  WireGuid guid{};
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < 16; i += 8) {
    const std::uint64_t word = util::splitmix64(state);
    std::memcpy(guid.data() + i, &word, 8);
  }
  return guid;
}

Message make_query(const WireGuid& guid, std::uint8_t ttl,
                   std::uint16_t min_speed, const std::string& search) {
  require_no_nul(search, "query search");
  Message message;
  message.header.guid = guid;
  message.header.type = MessageType::kQuery;
  message.header.ttl = ttl;
  message.query.min_speed = min_speed;
  message.query.search = search;
  return message;
}

Message make_query_hit(const WireGuid& query_guid, std::uint8_t ttl,
                       const WireGuid& servent,
                       std::vector<HitResult> results) {
  Message message;
  message.header.guid = query_guid;
  message.header.type = MessageType::kQueryHit;
  message.header.ttl = ttl;
  message.query_hit.servent_guid = servent;
  message.query_hit.results = std::move(results);
  return message;
}

Message make_ping(const WireGuid& guid, std::uint8_t ttl) {
  Message message;
  message.header.guid = guid;
  message.header.type = MessageType::kPing;
  message.header.ttl = ttl;
  return message;
}

Message make_pong(const WireGuid& ping_guid, std::uint8_t ttl,
                  const Pong& pong) {
  Message message;
  message.header.guid = ping_guid;
  message.header.type = MessageType::kPong;
  message.header.ttl = ttl;
  message.pong = pong;
  return message;
}

trace::QueryKey normalize_query(const std::string& search) noexcept {
  std::uint32_t hash = 2166136261u;  // FNV-1a 32
  for (char ch : search) {
    hash ^= static_cast<std::uint8_t>(
        std::tolower(static_cast<unsigned char>(ch)));
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace aar::gnutella
