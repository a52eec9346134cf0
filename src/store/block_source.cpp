#include "store/block_source.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace aar::store {

StoreBlockSource::StoreBlockSource(const Reader& reader) : reader_(reader) {
  if (reader_.kind() != StreamKind::pairs) {
    throw std::runtime_error("aartr: " + reader_.path() +
                             ": streaming replay needs a pairs stream, got " +
                             std::string(to_string(reader_.kind())));
  }
  schedule_prefetch();
}

StoreBlockSource::~StoreBlockSource() {
  // pool_ is the last member, so its destructor joins the worker before the
  // slot state it writes to is destroyed.
}

void StoreBlockSource::schedule_prefetch() {
  if (next_chunk_ >= reader_.num_chunks()) return;
  const std::size_t chunk = next_chunk_++;
  pool_.submit([this, chunk] {
    std::exception_ptr error;
    try {
      reader_.read_pairs_chunk(chunk, slot_, payload_);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot_error_ = error;
      slot_ready_ = true;
    }
    slot_filled_.notify_one();
  });
}

void StoreBlockSource::take_prefetched() {
  // Hit = the decode finished before the simulator came back for the chunk
  // (prefetch fully overlapped); wait = the consumer stalled on the decode.
  auto& registry = obs::Registry::global();
  static obs::Counter& hits = registry.counter("store.prefetch_hits");
  static obs::Counter& waits = registry.counter("store.prefetch_waits");
  static obs::Timer& wait_timer = registry.timer("store.prefetch_wait");

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!slot_ready_) {
      waits.add(1);
      const obs::Timer::Scope stall = wait_timer.measure();
      slot_filled_.wait(lock, [this] { return slot_ready_; });
    } else if (slot_error_ == nullptr) {
      hits.add(1);
    }
    // The error stays in the slot and nothing more is scheduled, so every
    // later call rethrows it rather than waiting for a chunk forever.
    if (slot_error_ != nullptr) std::rethrow_exception(slot_error_);
    chunk_.swap(slot_);
    slot_ready_ = false;
  }
  ++chunks_taken_;
  schedule_prefetch();  // overlap the next decode with consumption
}

std::span<const trace::QueryReplyPair> StoreBlockSource::next_block(
    std::size_t block_size) {
  while (chunk_.size() - offset_ < block_size) {
    if (offset_ < chunk_.size()) {
      // The block straddles a chunk boundary: stitch the rest of this chunk
      // and the head of the following ones into one buffer.
      stitch_.assign(chunk_.begin() + static_cast<std::ptrdiff_t>(offset_),
                     chunk_.end());
      offset_ = chunk_.size();
      while (stitch_.size() < block_size) {
        if (chunks_taken_ == reader_.num_chunks()) return {};  // tail dropped
        take_prefetched();
        offset_ = std::min(block_size - stitch_.size(), chunk_.size());
        stitch_.insert(stitch_.end(), chunk_.begin(),
                       chunk_.begin() + static_cast<std::ptrdiff_t>(offset_));
      }
      return stitch_;
    }
    if (chunks_taken_ == reader_.num_chunks()) return {};
    take_prefetched();
    offset_ = 0;
  }
  const std::span<const trace::QueryReplyPair> block(chunk_.data() + offset_,
                                                     block_size);
  offset_ += block_size;
  return block;
}

}  // namespace aar::store
