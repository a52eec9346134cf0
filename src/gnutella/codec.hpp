#pragma once
// Serialization / parsing of Gnutella 0.4 descriptors.
//
// parse() is strict about structure (truncated headers, payload-length
// mismatches, unterminated strings) but tolerant about content, since the
// paper's capture demonstrably contained garbage (clients that reused
// GUIDs).  Errors are reported as typed codes, never exceptions — a capture
// node must survive any byte stream its neighbors send.
//
// serialize() is the opposite: it refuses (std::invalid_argument) to emit a
// frame that cannot round-trip through parse() — a QueryHit with more than
// 255 results (the wire count is one byte) or a search / file-name string
// containing an embedded NUL (the wire format is NUL-terminated, so the
// parser would truncate it and the capture would record a different
// QueryKey than was sent).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gnutella/message.hpp"
#include "trace/record.hpp"

namespace aar::gnutella {

enum class ParseError {
  kNone,
  kTruncatedHeader,
  kUnknownType,
  kTruncatedPayload,
  kMalformedPayload,
  kOversizedPayload,
};

[[nodiscard]] std::string to_string(ParseError error);

struct ParseResult {
  ParseError error = ParseError::kNone;
  Message message;
  std::size_t consumed = 0;  ///< bytes consumed from the input

  [[nodiscard]] bool ok() const noexcept { return error == ParseError::kNone; }
};

/// Largest payload a well-behaved servent sends; larger frames are rejected
/// (classic Gnutella clients dropped them too).
constexpr std::uint32_t kMaxPayload = 64 * 1024;

/// Most results one QueryHit can carry: the wire count field is one byte.
constexpr std::size_t kMaxHitResults = 255;

/// Serialize a message; the header's payload_length is recomputed.
/// Throws std::invalid_argument for a message that cannot round-trip: a
/// QueryHit with more than kMaxHitResults results, or a Query search /
/// QueryHit file name containing an embedded NUL.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Message& message);

/// Parse one message from the front of `bytes`.
[[nodiscard]] ParseResult parse(std::span<const std::uint8_t> bytes);

/// Incremental frame decoder for a TCP-like byte stream: feed arbitrary
/// chunks, take out whole messages.  Malformed frames are skipped by
/// resynchronizing past their declared length (counted, not thrown).
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete message, if one is buffered.
  [[nodiscard]] std::optional<Message> next();

  [[nodiscard]] std::uint64_t malformed_frames() const noexcept {
    return malformed_;
  }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - offset_;
  }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  /// Bytes of a malformed frame still to discard; nonzero when resync
  /// outpaced the bytes that have arrived, so skipping resumes on the next
  /// feed and the decoded stream is identical for every chunking.
  std::size_t skip_ = 0;
  std::uint64_t malformed_ = 0;
};

/// Convenience constructors used by tests, the daemon and the replay generator.
/// make_query throws std::invalid_argument when `search` contains an
/// embedded NUL (see serialize).
[[nodiscard]] Message make_query(const WireGuid& guid, std::uint8_t ttl,
                                 std::uint16_t min_speed,
                                 const std::string& search);
[[nodiscard]] Message make_query_hit(const WireGuid& query_guid,
                                     std::uint8_t ttl,
                                     const WireGuid& servent,
                                     std::vector<HitResult> results);
[[nodiscard]] Message make_ping(const WireGuid& guid, std::uint8_t ttl);
[[nodiscard]] Message make_pong(const WireGuid& ping_guid, std::uint8_t ttl,
                                const Pong& pong);

/// Identifies one of a node's neighbor connections.
using NeighborId = std::uint32_t;

/// Normalize a search string to the trace pipeline's QueryKey (FNV-1a of the
/// lowercased text, truncated) — the "query string collapses to an id" step.
[[nodiscard]] trace::QueryKey normalize_query(
    const std::string& search) noexcept;

}  // namespace aar::gnutella
