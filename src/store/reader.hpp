#pragma once
// aartr file reader: header/footer validation, O(1) chunk seek, full
// materialization, and per-chunk decode for streaming replay.
//
// The constructor reads and validates the fixed header and the trailer +
// footer chunk index (magic, version, CRCs, offset sanity), so a truncated
// or corrupted container fails loudly before any data is consumed.  Chunk
// payload CRCs are checked on each decode.  Every read is a positioned
// read (pread) on the one descriptor the Reader holds, so one Reader may
// serve concurrent decodes (the prefetching StoreBlockSource decodes chunk
// i+1 on a pool thread while the simulator consumes chunk i).

#include <cstdint>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "trace/database.hpp"
#include "trace/record.hpp"

namespace aar::store {

class Reader {
 public:
  /// Open and validate `path`.  Throws std::runtime_error on missing file,
  /// bad magic/version, or truncated/corrupt header, footer, or trailer.
  explicit Reader(const std::string& path);
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] StreamKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t num_records() const noexcept { return records_; }
  [[nodiscard]] std::size_t num_chunks() const noexcept { return index_.size(); }
  /// Chunk capacity the file was written with (last chunk may be shorter).
  [[nodiscard]] std::uint32_t chunk_capacity() const noexcept {
    return chunk_records_;
  }
  [[nodiscard]] std::uint32_t chunk_records(std::size_t chunk) const;
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }

  /// Decode one chunk.  The typed accessor must match kind(); a mismatch
  /// throws std::runtime_error, as does a payload CRC failure.
  [[nodiscard]] std::vector<trace::QueryReplyPair> read_pairs_chunk(
      std::size_t chunk) const;
  /// As above, into caller-owned buffers: `out` is resized to the chunk's
  /// records and `payload` holds the raw bytes on the way.  Neither shrinks,
  /// so a caller reusing both allocates nothing per chunk.
  void read_pairs_chunk(std::size_t chunk, std::vector<trace::QueryReplyPair>& out,
                        std::vector<unsigned char>& payload) const;
  [[nodiscard]] std::vector<trace::QueryRecord> read_queries_chunk(
      std::size_t chunk) const;
  [[nodiscard]] std::vector<trace::ReplyRecord> read_replies_chunk(
      std::size_t chunk) const;

  /// Decode every chunk of a pairs file into one table.
  [[nodiscard]] std::vector<trace::QueryReplyPair> read_all_pairs() const;

  /// Full materialization into the relational pipeline: query streams append
  /// via add_query, reply streams via add_reply, pair streams install the
  /// pre-joined pair table directly (Database::set_pairs).
  void materialize(trace::Database& db) const;

 private:
  void require_kind(StreamKind kind) const;
  /// Read `size` bytes at `offset` into `out`; throws "truncated <what>" on
  /// a short read.
  void read_at(std::uint64_t offset, std::size_t size, unsigned char* out,
               const char* what) const;
  /// Read and CRC-check one chunk's payload into `buffer`; returns its size.
  std::size_t chunk_payload(std::size_t chunk,
                            std::vector<unsigned char>& buffer) const;

  /// The open file, closed on destruction (also when the constructor throws).
  struct File {
    int fd = -1;
    File() = default;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    ~File();
  };

  std::string path_;
  File file_;
  StreamKind kind_ = StreamKind::pairs;
  std::uint64_t records_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::uint64_t file_bytes_ = 0;
  struct ChunkEntry {
    std::uint64_t offset = 0;
    std::uint32_t records = 0;
  };
  std::vector<ChunkEntry> index_;
};

}  // namespace aar::store
