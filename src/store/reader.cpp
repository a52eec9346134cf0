#include "store/reader.hpp"

#include <bit>
#include <fstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/bytes.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define AAR_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace aar::store {

namespace {

using util::ByteReader;
using util::crc32;
using util::get_u32;
using util::get_u64;
using util::unzigzag;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("aartr: " + path + ": " + what);
}

std::string read_exact(std::ifstream& in, std::uint64_t offset,
                       std::size_t size, const std::string& path,
                       const std::string& what) {
  std::string buffer(size, '\0');
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(buffer.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    fail(path, "truncated " + what);
  }
  return buffer;
}

const unsigned char* bytes(const std::string& buffer) noexcept {
  return reinterpret_cast<const unsigned char*>(buffer.data());
}

/// Decode one delta chain value: prev += unzigzag(varint).
std::uint64_t next_delta(ByteReader& cursor, std::uint64_t& prev) {
  prev += static_cast<std::uint64_t>(unzigzag(cursor.varint()));
  return prev;
}

void decode_pairs(const unsigned char* data, std::size_t size,
                  std::span<trace::QueryReplyPair> out,
                  const std::string& path) {
  ByteReader cursor(data, size);
  std::uint64_t prev = 0;
  for (auto& r : out) r.time = std::bit_cast<double>(next_delta(cursor, prev));
  for (auto& r : out) r.guid = cursor.u64();
  for (auto& r : out) r.source_host = static_cast<trace::HostId>(cursor.varint());
  for (auto& r : out) r.replying_neighbor = static_cast<trace::HostId>(cursor.varint());
  for (auto& r : out) r.query = static_cast<trace::QueryKey>(cursor.varint());
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

void decode_queries(const unsigned char* data, std::size_t size,
                    std::span<trace::QueryRecord> out,
                    const std::string& path) {
  ByteReader cursor(data, size);
  std::uint64_t prev = 0;
  for (auto& r : out) r.time = std::bit_cast<double>(next_delta(cursor, prev));
  for (auto& r : out) r.guid = cursor.u64();
  for (auto& r : out) r.source_host = static_cast<trace::HostId>(cursor.varint());
  for (auto& r : out) r.query = static_cast<trace::QueryKey>(cursor.varint());
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

void decode_replies(const unsigned char* data, std::size_t size,
                    std::span<trace::ReplyRecord> out,
                    const std::string& path) {
  ByteReader cursor(data, size);
  std::uint64_t prev = 0;
  for (auto& r : out) r.time = std::bit_cast<double>(next_delta(cursor, prev));
  for (auto& r : out) r.guid = cursor.u64();
  for (auto& r : out) r.replying_neighbor = static_cast<trace::HostId>(cursor.varint());
  for (auto& r : out) r.serving_host = static_cast<trace::HostId>(cursor.varint());
  for (auto& r : out) r.file = static_cast<trace::QueryKey>(cursor.varint());
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

}  // namespace

Reader::Reader(const std::string& path) : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");

  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) fail(path, "cannot stat");
  file_bytes_ = static_cast<std::uint64_t>(end);
  if (file_bytes_ < kHeaderSize + kTrailerSize) {
    fail(path, "file too small to be an aartr container");
  }

  const std::string header = read_exact(in, 0, kHeaderSize, path, "header");
  const unsigned char* h = bytes(header);
  if (get_u64(h) != kMagic) fail(path, "bad magic (not an aartr file)");
  const std::uint32_t version = get_u32(h + 8);
  if (version != kFormatVersion) {
    fail(path, "unsupported format version " + std::to_string(version));
  }
  const std::uint8_t kind_byte = h[12];
  if (kind_byte > static_cast<std::uint8_t>(StreamKind::pairs)) {
    fail(path, "unknown stream kind " + std::to_string(kind_byte));
  }
  kind_ = static_cast<StreamKind>(kind_byte);
  records_ = get_u64(h + 16);
  chunk_records_ = get_u32(h + 24);
  if (get_u32(h + 28) != crc32(header.data(), kHeaderSize - 4)) {
    fail(path, "header CRC mismatch");
  }

  const std::string trailer = read_exact(in, file_bytes_ - kTrailerSize,
                                         kTrailerSize, path, "trailer");
  const unsigned char* t = bytes(trailer);
  if (get_u64(t + 12) != kEndMagic) {
    fail(path, "missing end magic (file truncated?)");
  }
  const std::uint64_t footer_offset = get_u64(t);
  const std::uint32_t footer_crc = get_u32(t + 8);
  if (footer_offset < kHeaderSize ||
      footer_offset > file_bytes_ - kTrailerSize) {
    fail(path, "footer offset out of range");
  }
  const std::size_t footer_size =
      static_cast<std::size_t>(file_bytes_ - kTrailerSize - footer_offset);
  const std::string footer =
      read_exact(in, footer_offset, footer_size, path, "footer");
  if (crc32(footer.data(), footer.size()) != footer_crc) {
    fail(path, "footer CRC mismatch");
  }
  if (footer_size < 4) fail(path, "footer too small");
  const unsigned char* f = bytes(footer);
  const std::uint32_t chunk_count = get_u32(f);
  if (footer_size != 4 + static_cast<std::size_t>(chunk_count) * 12) {
    fail(path, "footer size does not match chunk count");
  }
  index_.reserve(chunk_count);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    ChunkEntry entry;
    entry.offset = get_u64(f + 4 + i * 12);
    entry.records = get_u32(f + 4 + i * 12 + 8);
    if (entry.offset < kHeaderSize || entry.offset >= footer_offset) {
      fail(path, "chunk offset out of range");
    }
    total += entry.records;
    index_.push_back(entry);
  }
  if (total != records_) {
    fail(path, "chunk index records disagree with header record count");
  }
}

std::uint32_t Reader::chunk_records(std::size_t chunk) const {
  if (chunk >= index_.size()) fail(path_, "chunk index out of range");
  return index_[chunk].records;
}

void Reader::require_kind(StreamKind kind) const {
  if (kind_ != kind) {
    fail(path_, std::string("stream kind is ") + to_string(kind_) +
                    ", not " + to_string(kind));
  }
}

std::string Reader::chunk_payload(std::size_t chunk) const {
  if (chunk >= index_.size()) fail(path_, "chunk index out of range");
  std::ifstream in(path_, std::ios::binary);
  if (!in) fail(path_, "cannot open");
  const ChunkEntry& entry = index_[chunk];
  const std::string frame_header =
      read_exact(in, entry.offset, 8, path_, "chunk header");
  const unsigned char* fh = bytes(frame_header);
  const std::uint32_t payload_size = get_u32(fh);
  const std::uint32_t record_count = get_u32(fh + 4);
  if (record_count != entry.records) {
    fail(path_, "chunk record count disagrees with footer index");
  }
  if (entry.offset + 8 + payload_size + 4 > file_bytes_ - kTrailerSize) {
    fail(path_, "chunk payload overruns file");
  }
  std::string payload = read_exact(in, entry.offset + 8, payload_size + 4,
                                   path_, "chunk payload");
  const std::uint32_t stored_crc = get_u32(bytes(payload) + payload_size);
  payload.resize(payload_size);
  if (crc32(payload.data(), payload.size()) != stored_crc) {
    fail(path_, "chunk " + std::to_string(chunk) +
                    " CRC mismatch (corrupt payload)");
  }
  return payload;
}

std::vector<trace::QueryReplyPair> Reader::read_pairs_chunk(
    std::size_t chunk) const {
  require_kind(StreamKind::pairs);
  auto& registry = obs::Registry::global();
  static obs::Timer& decode_timer = registry.timer("store.chunk_decode");
  static obs::Counter& chunks = registry.counter("store.chunks_decoded");
  static obs::Counter& records_decoded =
      registry.counter("store.records_decoded");
  const obs::Timer::Scope scope = decode_timer.measure();
  const std::string payload = chunk_payload(chunk);
  std::vector<trace::QueryReplyPair> records(index_[chunk].records);
  decode_pairs(bytes(payload), payload.size(), records, path_);
  chunks.add(1);
  records_decoded.add(records.size());
  return records;
}

std::vector<trace::QueryRecord> Reader::read_queries_chunk(
    std::size_t chunk) const {
  require_kind(StreamKind::queries);
  const std::string payload = chunk_payload(chunk);
  std::vector<trace::QueryRecord> records(index_[chunk].records);
  decode_queries(bytes(payload), payload.size(), records, path_);
  return records;
}

std::vector<trace::ReplyRecord> Reader::read_replies_chunk(
    std::size_t chunk) const {
  require_kind(StreamKind::replies);
  const std::string payload = chunk_payload(chunk);
  std::vector<trace::ReplyRecord> records(index_[chunk].records);
  decode_replies(bytes(payload), payload.size(), records, path_);
  return records;
}

std::vector<trace::QueryReplyPair> Reader::read_all_pairs() const {
  require_kind(StreamKind::pairs);
  // Bulk path: map (or read) the whole file once, then every chunk is
  // CRC-checked and decoded in place into its slice of the output table —
  // no per-chunk file opens, payload copies, or intermediate vectors.
  std::vector<trace::QueryReplyPair> pairs(records_);
  const auto decode_all = [&](const unsigned char* base) {
    std::size_t out_offset = 0;
    for (std::size_t chunk = 0; chunk < index_.size(); ++chunk) {
      const ChunkEntry& entry = index_[chunk];
      const unsigned char* frame = base + entry.offset;
      const std::uint32_t payload_size = get_u32(frame);
      if (get_u32(frame + 4) != entry.records) {
        fail(path_, "chunk record count disagrees with footer index");
      }
      if (entry.offset + 8 + payload_size + 4 > file_bytes_ - kTrailerSize) {
        fail(path_, "chunk payload overruns file");
      }
      if (crc32(frame + 8, payload_size) != get_u32(frame + 8 + payload_size)) {
        fail(path_, "chunk " + std::to_string(chunk) +
                        " CRC mismatch (corrupt payload)");
      }
      decode_pairs(frame + 8, payload_size,
                   std::span<trace::QueryReplyPair>(pairs).subspan(
                       out_offset, entry.records),
                   path_);
      out_offset += entry.records;
    }
  };

#ifdef AAR_STORE_HAVE_MMAP
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) fail(path_, "cannot open");
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_bytes_), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) fail(path_, "mmap failed");
  struct Unmap {
    void* p;
    std::size_t n;
    ~Unmap() { ::munmap(p, n); }
  } guard{map, static_cast<std::size_t>(file_bytes_)};
#if defined(MADV_SEQUENTIAL)
  ::madvise(map, guard.n, MADV_SEQUENTIAL);
#endif
  decode_all(static_cast<const unsigned char*>(map));
#else
  std::ifstream in(path_, std::ios::binary);
  if (!in) fail(path_, "cannot open");
  const std::string file =
      read_exact(in, 0, static_cast<std::size_t>(file_bytes_), path_, "file");
  decode_all(bytes(file));
#endif
  return pairs;
}

void Reader::materialize(trace::Database& db) const {
  switch (kind_) {
    case StreamKind::queries:
      for (std::size_t chunk = 0; chunk < index_.size(); ++chunk) {
        for (const auto& record : read_queries_chunk(chunk)) db.add_query(record);
      }
      break;
    case StreamKind::replies:
      for (std::size_t chunk = 0; chunk < index_.size(); ++chunk) {
        for (const auto& record : read_replies_chunk(chunk)) db.add_reply(record);
      }
      break;
    case StreamKind::pairs:
      db.set_pairs(read_all_pairs());
      break;
  }
}

}  // namespace aar::store
