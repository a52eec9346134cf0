#pragma once
// Pull-based block iteration over a query–reply pair stream.
//
// The trace simulator historically required the whole pair table in memory
// (std::span).  BlockSource inverts that: the simulator *pulls* fixed-size
// blocks and the producer decides where they come from — an in-memory table
// (SpanBlockSource), a binary aartr file decoded chunk-by-chunk with
// background prefetch (store::StoreBlockSource, the replay's one
// decode-ahead stage), or any future network / generator-backed stream.
// Memory stays bounded by one block plus whatever the producer buffers.

#include <cstddef>
#include <span>

#include "trace/record.hpp"

namespace aar::trace {

class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Return the next `block_size` pairs in stream order, or an empty span
  /// once fewer than `block_size` remain — partial tail blocks are
  /// discarded, matching Database::num_blocks whole-block semantics.  The
  /// returned span is valid until the next call.  block_size > 0.
  [[nodiscard]] virtual std::span<const QueryReplyPair> next_block(
      std::size_t block_size) = 0;
};

/// BlockSource over an existing in-memory pair table (non-owning).
class SpanBlockSource final : public BlockSource {
 public:
  explicit SpanBlockSource(std::span<const QueryReplyPair> pairs) noexcept
      : pairs_(pairs) {}

  [[nodiscard]] std::span<const QueryReplyPair> next_block(
      std::size_t block_size) override {
    if (pairs_.size() - offset_ < block_size) return {};
    const auto block = pairs_.subspan(offset_, block_size);
    offset_ += block_size;
    return block;
  }

 private:
  std::span<const QueryReplyPair> pairs_;
  std::size_t offset_ = 0;
};

}  // namespace aar::trace
