#include "util/bytes.hpp"

#include <array>

namespace aar::util {

namespace {

/// Slicing-by-16 tables: table[0] is the classic byte-at-a-time table;
/// table[k][b] is the CRC of byte b followed by k zero bytes, letting the
/// hot loop fold 16 input bytes per iteration (~10x the byte-wise loop —
/// chunk checksums are a fixed per-byte cost of every decode).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables make_crc_tables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t slice = 1; slice < tables.size(); ++slice) {
      crc = tables[0][crc & 0xffu] ^ (crc >> 8);
      tables[slice][i] = crc;
    }
  }
  return tables;
}

std::uint32_t slice_word(const CrcTables& tables, std::uint32_t word,
                         std::size_t first) noexcept {
  return tables[first][word & 0xffu] ^ tables[first - 1][(word >> 8) & 0xffu] ^
         tables[first - 2][(word >> 16) & 0xffu] ^ tables[first - 3][word >> 24];
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  static const CrcTables tables = make_crc_tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  while (size >= 16) {
    crc = slice_word(tables, crc ^ get_u32(bytes), 15) ^
          slice_word(tables, get_u32(bytes + 4), 11) ^
          slice_word(tables, get_u32(bytes + 8), 7) ^
          slice_word(tables, get_u32(bytes + 12), 3);
    bytes += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = tables[0][(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t ByteReader::varint_long(std::uint64_t w) {
  // 9- or 10-byte varint: all eight bytes of `w` carry continuation bits, so
  // compact their 7-bit groups into the low 56 bits and finish byte-wise.
  std::uint64_t x = w & 0x7f7f7f7f7f7f7f7full;
  x = (x & 0x007f007f007f007full) | ((x & 0x7f007f007f007f00ull) >> 1);
  x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
  x = (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
  const std::uint64_t b8 = p_[8];
  x |= (b8 & 0x7fu) << 56;
  if ((b8 & 0x80u) == 0) { p_ += 9; return x; }
  const std::uint64_t b9 = p_[9];
  x |= (b9 & 0x7fu) << 63;
  if ((b9 & 0x80u) == 0) { p_ += 10; return x; }
  throw DecodeError("over-long varint");
}

void ByteReader::fail_truncated() {
  throw DecodeError("truncated fixed-width field");
}

std::uint64_t ByteReader::varint_checked() {
  std::uint64_t value = 0;
  int shift = 0;
  while (p_ != end_ && shift < 64) {
    const std::uint64_t byte = *p_++;
    value |= (byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
  throw DecodeError("truncated or over-long varint");
}

}  // namespace aar::util
