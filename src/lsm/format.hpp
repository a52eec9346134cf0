#pragma once
// On-disk block format for the lsm rule store (docs/STORAGE.md).
//
// The unit of storage is a *count entry*: a 64-bit key packing
// (antecedent, consequent) around a signed count delta.  Entries merge by
// addition — any two runs can be combined by summing per key, which is
// what makes compaction a pure streaming merge and lets a caller write
// negative corrections without read-modify-write.
//
// A block holds ascending-key entries under restart-point prefix
// compression (the aartr chunk discipline of src/store/format.hpp applied
// to sorted keys, in the shape of an LSM table block): keys are serialized
// big-endian so byte order equals numeric order, each entry stores only
// the bytes it does not share with its predecessor, and every
// `restart_interval`-th entry restarts the chain with a full key so a
// reader can binary-search restarts without decoding the whole block.
// Blocks are framed exactly like aartr chunks — payload size, entry
// count, payload, CRC32 — so a torn write or bit flip fails the checksum
// instead of decoding garbage counts.
//
//   frame:   u32 payload_size | u32 entry_count | payload | u32 crc32
//   payload: entry* | u32 restart_offset * n | u32 n
//   entry:   varint shared | varint unshared | key bytes | varint zigzag(count)

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "util/bytes.hpp"

namespace aar::lsm {

using trace::HostId;

/// (antecedent, consequent) packed so numeric order sorts by antecedent
/// first — one antecedent's consequents are one contiguous key range.
using Key = std::uint64_t;

[[nodiscard]] constexpr Key make_key(HostId antecedent,
                                     HostId consequent) noexcept {
  return (static_cast<Key>(antecedent) << 32) | consequent;
}
[[nodiscard]] constexpr HostId key_antecedent(Key key) noexcept {
  return static_cast<HostId>(key >> 32);
}
[[nodiscard]] constexpr HostId key_consequent(Key key) noexcept {
  return static_cast<HostId>(key & 0xffffffffu);
}
/// First key of `antecedent`'s range (inclusive).
[[nodiscard]] constexpr Key antecedent_begin(HostId antecedent) noexcept {
  return make_key(antecedent, 0);
}

/// One decoded entry.
struct Entry {
  Key key = 0;
  std::int64_t count = 0;

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Raised on any framing/CRC/format violation during decode.  Callers in
/// the store catch it and fall back (recovery never aborts on corruption).
/// It is the shared reader's error type, so an overrun inside a payload
/// reaches callers as CorruptBlock with no translation.
using CorruptBlock = util::DecodeError;

constexpr std::uint32_t kDefaultRestartInterval = 16;

/// Accumulates ascending-key entries and emits one framed block.
class BlockBuilder {
 public:
  explicit BlockBuilder(std::uint32_t restart_interval = kDefaultRestartInterval);

  /// Keys must be strictly ascending (throws std::logic_error otherwise).
  void add(Key key, std::int64_t count);

  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_ == 0; }
  /// Bytes the framed block would occupy if finished now.
  [[nodiscard]] std::size_t size_estimate() const noexcept {
    return payload_.size() + restarts_.size() * 4 + 16;
  }

  /// Frame the block (size | count | payload | crc) into `out` and reset
  /// the builder for the next block.
  void finish(std::string& out);

 private:
  std::uint32_t restart_interval_;
  std::string payload_;
  std::vector<std::uint32_t> restarts_;
  std::size_t entries_ = 0;
  Key last_key_ = 0;
  std::uint32_t since_restart_ = 0;
};

/// Decode one framed block starting at `data` (which may extend past the
/// block; `consumed` reports the frame size).  Throws CorruptBlock on a
/// short buffer, CRC mismatch, or malformed payload.
void decode_block(const unsigned char* data, std::size_t size,
                  std::vector<Entry>& out, std::size_t& consumed);

/// Point lookup inside one already-CRC-verified frame: seeks via the
/// restart array, then decodes at most one restart interval.  Returns
/// whether `key` is present, adding its count into `count`.
[[nodiscard]] bool block_find(const unsigned char* data, std::size_t size,
                              Key key, std::int64_t& count);

/// Incremental frame decoder, the codec-suite shape: feed arbitrary byte
/// slices, complete blocks come out.  Decoded entries are a pure function
/// of the concatenated byte stream for ANY chunking (the slicing-
/// invariance property tests pin this).  Corruption throws CorruptBlock;
/// a truncated tail simply never completes.
class BlockScanner {
 public:
  /// Append bytes; every block completed by them is appended to `out`.
  void feed(const unsigned char* data, std::size_t size,
            std::vector<Entry>& out);

  /// Bytes buffered towards an incomplete frame.
  [[nodiscard]] std::size_t pending() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

}  // namespace aar::lsm
