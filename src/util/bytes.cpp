#include "util/bytes.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AAR_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

/// Table CRC state update (pre- and post-inversion are the caller's).
std::uint32_t crc32_table_update(const unsigned char* bytes, std::size_t size,
                                 std::uint32_t crc) noexcept {
  static const CrcTables tables = make_crc_tables();
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
  return crc;
}

#ifdef AAR_CRC32_CLMUL
/// Carry-less-multiply folding of the same reflected polynomial (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
/// Intel 2009): four 128-bit lanes fold 64 bytes per step, then fold into
/// one lane, reduce 128 -> 64 bits and Barrett-reduce to the 32-bit state.
/// `size` is a multiple of 16 and at least 64.  The constants are powers of
/// x modulo the polynomial, bit-reflected: k1/k2 fold by 512 bits, k3/k4 by
/// 128, k5 by 64, and mu/P' drive the Barrett step.
#define AAR_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

AAR_CLMUL_TARGET inline __m128i load(const unsigned char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Fold `lane` forward by the distance `k` encodes and add `next`.
AAR_CLMUL_TARGET inline __m128i fold(__m128i lane, __m128i k,
                                     __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

AAR_CLMUL_TARGET std::uint32_t crc32_clmul_update(const unsigned char* bytes,
                                                  std::size_t size,
                                                  std::uint32_t crc) noexcept {
  __m128i x1 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(bytes + 16);
  __m128i x3 = load(bytes + 32);
  __m128i x4 = load(bytes + 48);
  bytes += 64;
  size -= 64;
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  while (size >= 64) {
    x1 = fold(x1, k1k2, load(bytes));
    x2 = fold(x2, k1k2, load(bytes + 16));
    x3 = fold(x3, k1k2, load(bytes + 32));
    x4 = fold(x4, k1k2, load(bytes + 48));
    bytes += 64;
    size -= 64;
  }
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (size >= 16) {
    x1 = fold(x1, k3k4, load(bytes));
    bytes += 16;
    size -= 16;
  }
  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

}  // namespace

std::uint32_t crc32_table(const void* data, std::size_t size,
                          std::uint32_t seed) noexcept {
  return ~crc32_table_update(static_cast<const unsigned char*>(data), size, ~seed);
}

bool crc32_clmul_supported() noexcept {
#ifdef AAR_CRC32_CLMUL
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
#ifdef AAR_CRC32_CLMUL
  if (size >= 64) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = crc32_clmul_update(bytes, folded, crc);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~crc32_table_update(bytes, size, crc);
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  return crc32_clmul_supported() ? crc32_clmul(data, size, seed)
                                 : crc32_table(data, size, seed);
}

std::uint64_t ByteReader::varint_long(std::uint64_t w) {
  // 9- or 10-byte varint: all eight bytes of `w` carry continuation bits, so
  // compact their 7-bit groups into the low 56 bits and finish byte-wise.
  std::uint64_t x = compact7(w & 0x7f7f7f7f7f7f7f7full);
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
