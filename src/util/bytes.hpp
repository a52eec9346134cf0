#pragma once
// The byte codec every binary format shares: little-endian integers, LEB128
// varints, zigzag signed mapping, CRC32 framing checksums, FNV-1a digests
// and one bounds-checked reader.  The aartr trace store (docs/FORMAT.md),
// the lsm rule archive (docs/STORAGE.md), the Gnutella 0.4 wire codec and
// the overlay outcome stream (docs/FAULTS.md) all encode through these, so
// their on-disk and on-wire bytes follow one definition of each primitive.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace aar::util {

// --- little-endian integer append / read ----------------------------------

/// Append `value` little-endian to a std::string or std::vector<uint8_t>.
template <typename Sink, typename T>
void put_le(Sink& out, T value) {
  using Byte = typename Sink::value_type;
  for (std::size_t shift = 0; shift < 8 * sizeof value; shift += 8) {
    out.push_back(static_cast<Byte>(value >> shift));
  }
}

template <typename Sink>
void put_u16(Sink& out, std::uint16_t value) { put_le(out, value); }
template <typename Sink>
void put_u32(Sink& out, std::uint32_t value) { put_le(out, value); }
template <typename Sink>
void put_u64(Sink& out, std::uint64_t value) { put_le(out, value); }

// memcpy compiles to a single (byte-swapped on BE hosts) load; a manual
// byte-shift loop does not — gcc keeps it as 8 loads, which dominates the
// varint and CRC hot paths.
[[nodiscard]] inline std::uint16_t get_u16(const unsigned char* p) noexcept {
  std::uint16_t value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap16(value);
  }
  return value;
}

[[nodiscard]] inline std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap32(value);
  }
  return value;
}

[[nodiscard]] inline std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  return value;
}

// --- LEB128 varints and zigzag signed mapping ------------------------------

template <typename Sink>
void put_varint(Sink& out, std::uint64_t value) {
  using Byte = typename Sink::value_type;
  while (value >= 0x80u) {
    out.push_back(static_cast<Byte>((value & 0x7fu) | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<Byte>(value));
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

// --- checksums and digests -------------------------------------------------

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).  `seed` chains
/// incremental updates: crc32(b, crc32(a)) == crc32(a+b).
/// Folds with carry-less multiplication (PCLMULQDQ) where the CPU has it,
/// else with the slicing-by-16 table; both give the same value.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

/// crc32()'s two paths, exposed for the differential test: the table path
/// runs everywhere; crc32_clmul folds inputs of 64 bytes or more with
/// PCLMULQDQ, so call it only where crc32_clmul_supported().
[[nodiscard]] std::uint32_t crc32_table(const void* data, std::size_t size,
                                        std::uint32_t seed = 0) noexcept;
[[nodiscard]] std::uint32_t crc32_clmul(const void* data, std::size_t size,
                                        std::uint32_t seed = 0) noexcept;
[[nodiscard]] bool crc32_clmul_supported() noexcept;

/// 64-bit FNV-1a: the golden digests of the test suite, the outcome-stream
/// fingerprint and the wire-GUID fold all use it.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

// --- bounds-checked reader -------------------------------------------------

/// A byte stream that does not decode: an overrun, an over-long varint, or
/// (for the formats that throw it themselves) any framing violation.
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Bounds-checked sequential decoder over a payload.  Overruns and
/// over-long varints throw DecodeError — CRC framing catches random
/// corruption first, so a throw here means a logic/format error.
/// varint() is the hottest loop in trace decode: the single-byte case (most
/// host/file-id columns) is inlined, and when at least 10 bytes remain the
/// continuation loop runs without per-byte bounds checks.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size) noexcept
      : p_(data), end_(data + size) {}

  [[nodiscard]] std::uint64_t varint() {
    if (p_ != end_ && *p_ < 0x80u) return *p_++;
    if (end_ - p_ >= 10) return varint_unchecked();
    return varint_checked();
  }

  /// Decode a column of `n` consecutive varints, calling `sink(i, value)`
  /// for i = 0..n-1 in order; same values and errors as n varint() calls.
  /// While 72 bytes remain it classifies 64 bytes at a time into a bitmask
  /// of terminator bytes and peels varints off the mask: one varint's end
  /// no longer waits on the previous one's load, and mixed lengths cost no
  /// mispredicted branch.  Varints of 9-10 bytes and the column's tail
  /// take varint().
  template <typename Sink>
  void varints(std::size_t n, Sink&& sink) {
    std::size_t i = 0;
    while (i < n && end_ - p_ >= 72) {
      const unsigned char* const base = p_;
      std::uint64_t stops = terminators64(base);
      if (stops == 0) break;  // a 64-byte varint: varint() below throws
      unsigned start = 0;     // first byte of the next varint in the window
      do {
        const auto last = static_cast<unsigned>(std::countr_zero(stops));
        const unsigned size = last - start + 1;
        if (size <= 8) [[likely]] {
          const std::uint64_t w = get_u64(base + start) & (~0ull >> (64 - 8 * size));
          sink(i, compact7(w & 0x7f7f7f7f7f7f7f7full));
        } else {
          p_ = base + start;
          sink(i, varint());  // 9-10 bytes, or throws when over-long
        }
        ++i;
        start = last + 1;
        stops &= stops - 1;
      } while (stops != 0 && i < n);
      p_ = base + start;
    }
    for (; i < n; ++i) sink(i, varint());
  }

  /// Branchless decode of a <= 8-byte varint given >= 10 readable bytes: find
  /// the terminator byte with countr_zero over the inverted continuation
  /// bits, mask off the consumed bytes, then compact the 7-bit groups with
  /// three shift/mask rounds.  Long (9-10 byte) varints fall through to the
  /// byte-wise tail — rare since only the timestamp delta column can produce
  /// them.
  [[nodiscard]] std::uint64_t varint_unchecked() {
    const std::uint64_t w = get_u64(p_);
    const std::uint64_t stops = ~w & 0x8080808080808080ull;
    if (stops != 0) [[likely]] {
      p_ += std::countr_zero(stops) / 8 + 1;
      const std::uint64_t lsb = stops & (0 - stops);
      return compact7(w & ((lsb << 1) - 1) & 0x7f7f7f7f7f7f7f7full);
    }
    return varint_long(w);
  }

  /// Fixed-width little-endian u64 (the GUID column).
  [[nodiscard]] std::uint64_t u64() {
    if (end_ - p_ < 8) fail_truncated();
    const std::uint64_t value = get_u64(p_);
    p_ += 8;
    return value;
  }

  /// Copy the next `n` bytes to `dst`.
  void bytes(unsigned char* dst, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) fail_truncated();
    std::memcpy(dst, p_, n);
    p_ += n;
  }

  /// The next unread byte.
  [[nodiscard]] const unsigned char* position() const noexcept { return p_; }
  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  /// Pack the 7-bit groups of up to eight varint bytes (continuation bits
  /// already cleared) into one value: three shift/mask rounds.
  [[nodiscard]] static std::uint64_t compact7(std::uint64_t x) noexcept {
    x = (x & 0x007f007f007f007full) | ((x & 0x7f007f007f007f00ull) >> 1);
    x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
    return (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
  }

  /// Bit b set when byte p[b] (0 <= b < 64) ends a varint (high bit clear):
  /// each word's eight high bits gathered by one multiply.
  [[nodiscard]] static std::uint64_t terminators64(const unsigned char* p) noexcept {
    std::uint64_t mask = 0;
    for (unsigned word = 0; word < 8; ++word) {
      const std::uint64_t high = ~get_u64(p + 8 * word) & 0x8080808080808080ull;
      mask |= (((high >> 7) * 0x0102040810204080ull) >> 56) << (8 * word);
    }
    return mask;
  }

  [[nodiscard]] std::uint64_t varint_long(std::uint64_t w);
  [[nodiscard]] std::uint64_t varint_checked();
  [[noreturn]] static void fail_truncated();

  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace aar::util
