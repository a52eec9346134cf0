#pragma once
// Gnutella 0.4 wire messages (reference [4] of the paper).
//
// The paper's trace was collected "at a modified node in the Gnutella
// network"; this module is that node's protocol surface: the five descriptor
// types with their binary layouts, so captures can be ingested from (or
// emitted to) the actual wire format.  Layouts follow the Gnutella 0.4
// specification: a 23-byte descriptor header (16-byte GUID, 1-byte type,
// TTL, hops, 4-byte little-endian payload length) followed by the payload.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace aar::gnutella {

/// 16-byte wire GUID ("globally unique" — the paper found otherwise).
using WireGuid = std::array<std::uint8_t, 16>;

enum class MessageType : std::uint8_t {
  kPing = 0x00,
  kPong = 0x01,
  kPush = 0x40,
  kQuery = 0x80,
  kQueryHit = 0x81,
};

/// Is this a descriptor type the 0.4 protocol defines?
[[nodiscard]] constexpr bool is_known_type(std::uint8_t raw) noexcept {
  return raw == 0x00 || raw == 0x01 || raw == 0x40 || raw == 0x80 ||
         raw == 0x81;
}

struct Header {
  WireGuid guid{};
  MessageType type = MessageType::kPing;
  std::uint8_t ttl = 7;
  std::uint8_t hops = 0;
  std::uint32_t payload_length = 0;

  static constexpr std::size_t kSize = 23;
};

/// PONG payload: the responder's address and shared-library size.
struct Pong {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;
  std::uint32_t shared_files = 0;
  std::uint32_t shared_kb = 0;

  static constexpr std::size_t kSize = 14;
};

/// QUERY payload: minimum speed + NUL-terminated search string.
struct QuerySearch {
  std::uint16_t min_speed = 0;
  std::string search;
};

/// One result inside a QUERYHIT.
struct HitResult {
  std::uint32_t file_index = 0;
  std::uint32_t file_size = 0;
  std::string file_name;  ///< double-NUL terminated on the wire
};

/// QUERYHIT payload: responder endpoint + result set + servent GUID.
struct QueryHit {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;
  std::uint32_t speed = 0;
  std::vector<HitResult> results;
  WireGuid servent_guid{};
};

/// A parsed message: header plus the payload variant that applies.
/// (PING and PUSH carry no payload we model; PUSH payloads are preserved
/// opaquely so relays do not corrupt them.)
struct Message {
  Header header;
  Pong pong{};
  QuerySearch query{};
  QueryHit query_hit{};
  std::vector<std::uint8_t> opaque;  ///< raw payload for PUSH / unknown use
};

/// Collapse a 16-byte wire GUID to the 64-bit id the trace pipeline uses
/// (FNV-1a over the bytes; collision probability is negligible at trace
/// scale and duplicates in the capture are *by definition* duplicated wire
/// GUIDs, which collapse identically).
[[nodiscard]] inline std::uint64_t fold_guid(const WireGuid& guid) noexcept {
  return util::fnv1a(guid);
}

/// Build a wire GUID from a 64-bit seed (test and generator convenience).
[[nodiscard]] WireGuid make_wire_guid(std::uint64_t seed) noexcept;

}  // namespace aar::gnutella
