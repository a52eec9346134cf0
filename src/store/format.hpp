#pragma once
// On-disk "aartr" binary trace format — shared constants.
//
// The paper's pipeline ran off a 2.6 GB MySQL database; our CSV substitute
// pays parse cost on every run and needs the whole trace in RAM.  aartr is
// the production replacement: a chunked columnar container for the three
// trace record streams (queries, replies, query–reply pairs) with
// delta-encoded timestamps, fixed 64-bit GUIDs, varint id columns, and CRC32 framing
// so truncated or corrupted files fail loudly instead of silently skewing a
// replay.  Layout (all integers little-endian; see docs/FORMAT.md):
//
//   header   32 B   magic, version, stream kind, record count, chunk size,
//                   header CRC32
//   chunk*          u32 payload_size | u32 record_count | payload | u32 CRC32
//   footer          u32 chunk_count | chunk_count x { u64 offset, u32 records }
//   trailer  20 B   u64 footer_offset | u32 footer CRC32 | end magic
//
// Chunks decode independently (each restarts its delta chains), which is
// what gives the reader O(1) seek to any chunk via the footer index.  The
// integer, varint, zigzag and CRC32 encodings are util/bytes.hpp's.

#include <cstddef>
#include <cstdint>

namespace aar::store {

/// Which record stream a file carries.
enum class StreamKind : std::uint8_t { queries = 0, replies = 1, pairs = 2 };

[[nodiscard]] const char* to_string(StreamKind kind) noexcept;

/// "aartrace" / "ecartraa" as little-endian u64s.
constexpr std::uint64_t kMagic = 0x6563617274726161ull;
constexpr std::uint64_t kEndMagic = 0x6161727472616365ull;
constexpr std::uint32_t kFormatVersion = 1;

constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kTrailerSize = 20;
constexpr std::uint32_t kDefaultChunkRecords = 16'384;

}  // namespace aar::store
