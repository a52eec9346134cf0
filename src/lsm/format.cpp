#include "lsm/format.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace aar::lsm {

namespace {

using util::ByteReader;
using util::crc32;
using util::get_u32;
using util::put_u32;
using util::put_varint;
using util::unzigzag;
using util::zigzag;

using KeyBytes = std::array<unsigned char, 8>;

KeyBytes be_bytes(Key key) noexcept {
  KeyBytes bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(key >> (56 - 8 * i));
  }
  return bytes;
}

Key be_key(const KeyBytes& bytes) noexcept {
  Key key = 0;
  for (const unsigned char byte : bytes) key = (key << 8) | byte;
  return key;
}

[[noreturn]] void corrupt(const char* what) { throw CorruptBlock(what); }

/// The shared reader over [begin, end); its overruns throw CorruptBlock.
ByteReader reader_over(const unsigned char* begin, const unsigned char* end) {
  return ByteReader(begin, static_cast<std::size_t>(end - begin));
}

/// Decode one entry at `cursor`, updating the rolling key in `prev`.
Entry decode_entry(ByteReader& cursor, KeyBytes& prev, bool at_restart) {
  const std::uint64_t shared = cursor.varint();
  const std::uint64_t unshared = cursor.varint();
  if (shared > 8 || shared + unshared != 8) {
    corrupt("lsm block: bad key prefix lengths");
  }
  if (at_restart && shared != 0) {
    corrupt("lsm block: restart entry shares a prefix");
  }
  cursor.bytes(prev.data() + shared, unshared);
  Entry entry;
  entry.key = be_key(prev);
  entry.count = unzigzag(cursor.varint());
  return entry;
}

struct Payload {
  const unsigned char* entries_begin;
  const unsigned char* entries_end;
  const unsigned char* restart_array;  ///< n u32 offsets into the entry region
  std::uint32_t restarts;
};

/// Split a payload into its entry region and restart trailer.
Payload split_payload(const unsigned char* payload, std::size_t size) {
  if (size < 4) corrupt("lsm block: payload too small for restart count");
  const std::uint32_t restarts = get_u32(payload + size - 4);
  const std::size_t trailer = 4 + static_cast<std::size_t>(restarts) * 4;
  if (restarts == 0 || trailer > size) {
    corrupt("lsm block: restart trailer out of bounds");
  }
  Payload split;
  split.entries_begin = payload;
  split.entries_end = payload + (size - trailer);
  split.restart_array = payload + (size - trailer);
  split.restarts = restarts;
  return split;
}

std::size_t restart_offset(const Payload& payload, std::uint32_t index) {
  const std::size_t offset = get_u32(payload.restart_array + index * 4);
  if (payload.entries_begin + offset > payload.entries_end) {
    corrupt("lsm block: restart offset out of bounds");
  }
  return offset;
}

/// Full key stored at a restart point (shared is always 0 there).
Key key_at_restart(const Payload& payload, std::uint32_t index) {
  ByteReader cursor =
      reader_over(payload.entries_begin + restart_offset(payload, index),
                  payload.entries_end);
  KeyBytes prev{};
  return decode_entry(cursor, prev, /*at_restart=*/true).key;
}

struct Frame {
  const unsigned char* payload;
  std::size_t payload_size;
  std::uint32_t declared_entries;
  std::size_t consumed;
};

/// Validate framing + CRC of the block starting at `data`.
Frame check_frame(const unsigned char* data, std::size_t size) {
  if (size < 12) corrupt("lsm block: short frame header");
  Frame frame;
  frame.payload_size = get_u32(data);
  frame.declared_entries = get_u32(data + 4);
  frame.consumed = 8 + frame.payload_size + 4;
  if (frame.payload_size == 0 || frame.consumed > size) {
    corrupt("lsm block: frame exceeds buffer");
  }
  frame.payload = data + 8;
  const std::uint32_t expected = get_u32(data + 8 + frame.payload_size);
  if (crc32(frame.payload, frame.payload_size) != expected) {
    corrupt("lsm block: CRC mismatch");
  }
  return frame;
}

}  // namespace

// --------------------------------------------------------------- BlockBuilder

BlockBuilder::BlockBuilder(std::uint32_t restart_interval)
    : restart_interval_(std::max<std::uint32_t>(1, restart_interval)) {}

void BlockBuilder::add(Key key, std::int64_t count) {
  if (entries_ != 0 && key <= last_key_) {
    throw std::logic_error("lsm BlockBuilder: keys must be strictly ascending");
  }
  const KeyBytes bytes = be_bytes(key);
  std::size_t shared = 0;
  if (entries_ == 0 || since_restart_ >= restart_interval_) {
    restarts_.push_back(static_cast<std::uint32_t>(payload_.size()));
    since_restart_ = 0;
  } else {
    const KeyBytes prev = be_bytes(last_key_);
    while (shared < 8 && prev[shared] == bytes[shared]) ++shared;
  }
  put_varint(payload_, shared);
  put_varint(payload_, 8 - shared);
  payload_.append(reinterpret_cast<const char*>(bytes.data() + shared),
                  8 - shared);
  put_varint(payload_, zigzag(count));
  last_key_ = key;
  ++since_restart_;
  ++entries_;
}

void BlockBuilder::finish(std::string& out) {
  if (entries_ == 0) throw std::logic_error("lsm BlockBuilder: empty block");
  for (const std::uint32_t offset : restarts_) put_u32(payload_, offset);
  put_u32(payload_, static_cast<std::uint32_t>(restarts_.size()));
  put_u32(out, static_cast<std::uint32_t>(payload_.size()));
  put_u32(out, static_cast<std::uint32_t>(entries_));
  out += payload_;
  put_u32(out, crc32(payload_.data(), payload_.size()));
  payload_.clear();
  restarts_.clear();
  entries_ = 0;
  last_key_ = 0;
  since_restart_ = 0;
}

// --------------------------------------------------------------- decode_block

void decode_block(const unsigned char* data, std::size_t size,
                  std::vector<Entry>& out, std::size_t& consumed) {
  const Frame frame = check_frame(data, size);
  const Payload payload = split_payload(frame.payload, frame.payload_size);
  ByteReader cursor = reader_over(payload.entries_begin, payload.entries_end);
  KeyBytes prev{};
  std::uint32_t next_restart = 0;
  Key last = 0;
  std::uint32_t decoded = 0;
  while (!cursor.done()) {
    const bool at_restart =
        next_restart < payload.restarts &&
        cursor.position() ==
            payload.entries_begin + restart_offset(payload, next_restart);
    if (at_restart) ++next_restart;
    const Entry entry = decode_entry(cursor, prev, at_restart);
    if (decoded != 0 && entry.key <= last) {
      corrupt("lsm block: keys not strictly ascending");
    }
    last = entry.key;
    out.push_back(entry);
    ++decoded;
  }
  if (decoded != frame.declared_entries) {
    corrupt("lsm block: entry count mismatch");
  }
  if (next_restart != payload.restarts) {
    corrupt("lsm block: unused restart points");
  }
  consumed = frame.consumed;
}

bool block_find(const unsigned char* data, std::size_t size, Key key,
                std::int64_t& count) {
  if (size < 12) corrupt("lsm block: short frame header");
  const std::size_t payload_size = get_u32(data);
  if (8 + payload_size + 4 > size) corrupt("lsm block: frame exceeds buffer");
  const Payload payload = split_payload(data + 8, payload_size);

  // Last restart whose first key is <= key; entries before the first
  // restart cannot exist (entry 0 is always a restart).
  if (key_at_restart(payload, 0) > key) return false;
  std::uint32_t lo = 0;
  std::uint32_t hi = payload.restarts - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (key_at_restart(payload, mid) <= key) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const unsigned char* stop =
      lo + 1 < payload.restarts
          ? payload.entries_begin + restart_offset(payload, lo + 1)
          : payload.entries_end;
  const unsigned char* begin =
      payload.entries_begin + restart_offset(payload, lo);
  if (stop < begin) corrupt("lsm block: restart offsets not ascending");
  ByteReader cursor = reader_over(begin, stop);
  KeyBytes prev{};
  bool at_restart = true;
  while (!cursor.done()) {
    const Entry entry = decode_entry(cursor, prev, at_restart);
    at_restart = false;
    if (entry.key == key) {
      count += entry.count;
      return true;
    }
    if (entry.key > key) return false;
  }
  return false;
}

// --------------------------------------------------------------- BlockScanner

void BlockScanner::feed(const unsigned char* data, std::size_t size,
                        std::vector<Entry>& out) {
  buffer_.append(reinterpret_cast<const char*>(data), size);
  std::size_t offset = 0;
  for (;;) {
    const std::size_t available = buffer_.size() - offset;
    if (available < 12) break;
    const auto* head =
        reinterpret_cast<const unsigned char*>(buffer_.data()) + offset;
    const std::size_t frame = 8 + static_cast<std::size_t>(get_u32(head)) + 4;
    if (frame > available) break;
    std::size_t consumed = 0;
    decode_block(head, available, out, consumed);
    offset += consumed;
  }
  buffer_.erase(0, offset);
}

}  // namespace aar::lsm
