#pragma once
// Per-run bloom filter over *antecedents* (docs/STORAGE.md).
//
// The store's hot negative path is "does any run know this antecedent?" —
// asked by the Forwarder before falling back to flooding and by the miner
// before a restore read.  Filtering on the 32-bit antecedent rather than
// the full (antecedent, consequent) key makes one probe answer for the
// whole consequent range, and a miss skips the run's index + block reads
// entirely.
//
// Classic double hashing: two 32-bit halves of a splitmix64 finalizer
// drive k probes over a bit array sized at `bits_per_key` bits per
// distinct antecedent.  False positives only cost a wasted index lookup;
// false negatives are forbidden (property-tested in
// tests/test_lsm_properties.cpp).
//
// Serialized form (embedded as the run's filter block payload):
//   u32 hash_count | u32 bit_count | bit bytes

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/format.hpp"
#include "util/bytes.hpp"

namespace aar::lsm {

class Bloom {
 public:
  Bloom() = default;

  /// Build over `count` distinct antecedents, then add() each.
  Bloom(std::size_t count, std::size_t bits_per_key) {
    std::size_t bits = count * bits_per_key;
    if (bits < 64) bits = 64;
    bits_ = static_cast<std::uint32_t>(bits);
    // k = ln2 * bits/key, clamped to a sane band.
    std::size_t k = bits_per_key * 69 / 100;
    if (k < 1) k = 1;
    if (k > 16) k = 16;
    hashes_ = static_cast<std::uint32_t>(k);
    data_.assign((bits_ + 7) / 8, '\0');
  }

  void add(HostId antecedent) noexcept {
    const std::uint64_t h = mix(antecedent);
    std::uint32_t pos = static_cast<std::uint32_t>(h);
    const std::uint32_t delta = static_cast<std::uint32_t>(h >> 32) | 1u;
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      const std::uint32_t bit = pos % bits_;
      data_[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(data_[bit / 8]) | (1u << (bit % 8)));
      pos += delta;
    }
  }

  /// Never false for an added antecedent.
  [[nodiscard]] bool may_contain(HostId antecedent) const noexcept {
    if (bits_ == 0) return false;
    const std::uint64_t h = mix(antecedent);
    std::uint32_t pos = static_cast<std::uint32_t>(h);
    const std::uint32_t delta = static_cast<std::uint32_t>(h >> 32) | 1u;
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      const std::uint32_t bit = pos % bits_;
      if ((static_cast<unsigned char>(data_[bit / 8]) & (1u << (bit % 8))) ==
          0) {
        return false;
      }
      pos += delta;
    }
    return true;
  }

  [[nodiscard]] std::string serialize() const {
    std::string out;
    util::put_u32(out, hashes_);
    util::put_u32(out, bits_);
    out += data_;
    return out;
  }

  /// Throws CorruptBlock on a malformed payload.
  static Bloom deserialize(std::string_view bytes) {
    if (bytes.size() < 8) throw CorruptBlock("lsm bloom: short payload");
    const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
    Bloom bloom;
    bloom.hashes_ = util::get_u32(raw);
    bloom.bits_ = util::get_u32(raw + 4);
    if (bloom.hashes_ == 0 || bloom.hashes_ > 16 || bloom.bits_ == 0 ||
        bytes.size() != 8 + (static_cast<std::size_t>(bloom.bits_) + 7) / 8) {
      throw CorruptBlock("lsm bloom: inconsistent geometry");
    }
    bloom.data_.assign(bytes.data() + 8, bytes.size() - 8);
    return bloom;
  }

 private:
  // splitmix64 finalizer — same mix the sim engine uses for peer ids.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint32_t hashes_ = 0;
  std::uint32_t bits_ = 0;
  std::string data_;
};

}  // namespace aar::lsm
