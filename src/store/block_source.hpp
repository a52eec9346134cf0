#pragma once
// Streaming BlockSource over an aartr pairs file with background prefetch.
//
// Chunks are decoded one ahead of consumption on a single util::ThreadPool
// worker, so chunk decode (varint + delta reconstruction) overlaps strategy
// evaluation in the simulator.  A block that lies inside one decoded chunk
// is handed out as a span into that chunk; only a block straddling a chunk
// boundary is copied, into a stitch buffer of at most one block.  Memory is
// therefore bounded by the current chunk, the stitch buffer and the single
// in-flight prefetched chunk — replaying a multi-gigabyte trace needs
// megabytes of RAM, not the whole table.  The two chunk buffers trade
// places at each hand-over and the worker reads payloads into one reused
// buffer, so a replay allocates only while its buffers grow.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "store/reader.hpp"
#include "trace/block_source.hpp"
#include "trace/record.hpp"
#include "util/parallel.hpp"

namespace aar::store {

class StoreBlockSource final : public trace::BlockSource {
 public:
  /// `reader` must outlive this source and carry a pairs stream (throws
  /// std::runtime_error otherwise).  Prefetch of chunk 0 starts immediately.
  explicit StoreBlockSource(const Reader& reader);
  ~StoreBlockSource() override;

  /// Decode errors (CRC mismatch, truncation) surface here, on the call
  /// that needed the corrupt chunk, and again on every later call.
  [[nodiscard]] std::span<const trace::QueryReplyPair> next_block(
      std::size_t block_size) override;

 private:
  void schedule_prefetch();
  /// Wait for the prefetched chunk and make it chunk_ (its old buffer goes
  /// back to the worker for the next decode).
  void take_prefetched();

  const Reader& reader_;
  std::size_t next_chunk_ = 0;    ///< next chunk index to schedule
  std::size_t chunks_taken_ = 0;  ///< chunks consumed from the slot

  std::mutex mutex_;
  std::condition_variable slot_filled_;
  /// Written by the worker while a decode is in flight, read by the consumer
  /// only once slot_ready_ is set: the two never touch it at once.
  std::vector<trace::QueryReplyPair> slot_;
  std::vector<unsigned char> payload_;  ///< the worker's read buffer
  std::exception_ptr slot_error_;  ///< kept once set: decoding stops there
  bool slot_ready_ = false;

  std::vector<trace::QueryReplyPair> chunk_;   ///< decoded chunk in use
  std::size_t offset_ = 0;                     ///< pairs of chunk_ handed out
  std::vector<trace::QueryReplyPair> stitch_;  ///< block across chunks

  util::ThreadPool pool_{1};  ///< last member: joins before slot state dies
};

}  // namespace aar::store
