#include "store/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/bytes.hpp"

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

/// Decode a delta-coded timestamp column: prev += unzigzag(varint).
template <typename Record>
void decode_times(ByteReader& cursor, std::span<Record> out) {
  std::uint64_t prev = 0;
  cursor.varints(out.size(), [&](std::size_t i, std::uint64_t value) {
    prev += static_cast<std::uint64_t>(unzigzag(value));
    out[i].time = std::bit_cast<double>(prev);
  });
}

/// Decode a varint column into one field of every record.
template <typename Record, typename Field>
void decode_column(ByteReader& cursor, std::span<Record> out, Field Record::*field) {
  cursor.varints(out.size(), [&](std::size_t i, std::uint64_t value) {
    out[i].*field = static_cast<Field>(value);
  });
}

void decode_pairs(const unsigned char* data, std::size_t size,
                  std::span<trace::QueryReplyPair> out,
                  const std::string& path) {
  using trace::QueryReplyPair;
  ByteReader cursor(data, size);
  decode_times(cursor, out);
  for (auto& r : out) r.guid = cursor.u64();
  decode_column(cursor, out, &QueryReplyPair::source_host);
  decode_column(cursor, out, &QueryReplyPair::replying_neighbor);
  decode_column(cursor, out, &QueryReplyPair::query);
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

void decode_queries(const unsigned char* data, std::size_t size,
                    std::span<trace::QueryRecord> out,
                    const std::string& path) {
  using trace::QueryRecord;
  ByteReader cursor(data, size);
  decode_times(cursor, out);
  for (auto& r : out) r.guid = cursor.u64();
  decode_column(cursor, out, &QueryRecord::source_host);
  decode_column(cursor, out, &QueryRecord::query);
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

void decode_replies(const unsigned char* data, std::size_t size,
                    std::span<trace::ReplyRecord> out,
                    const std::string& path) {
  using trace::ReplyRecord;
  ByteReader cursor(data, size);
  decode_times(cursor, out);
  for (auto& r : out) r.guid = cursor.u64();
  decode_column(cursor, out, &ReplyRecord::replying_neighbor);
  decode_column(cursor, out, &ReplyRecord::serving_host);
  decode_column(cursor, out, &ReplyRecord::file);
  if (!cursor.done()) fail(path, "chunk payload has trailing bytes");
}

}  // namespace

Reader::File::~File() {
  if (fd >= 0) ::close(fd);
}

Reader::Reader(const std::string& path) : path_(path) {
  file_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file_.fd < 0) fail(path, "cannot open");
  struct stat info {};
  if (::fstat(file_.fd, &info) != 0 || !S_ISREG(info.st_mode)) {
    fail(path, "cannot stat");
  }
  file_bytes_ = static_cast<std::uint64_t>(info.st_size);
  if (file_bytes_ < kHeaderSize + kTrailerSize) {
    fail(path, "file too small to be an aartr container");
  }

  std::array<unsigned char, kHeaderSize> header{};
  read_at(0, kHeaderSize, header.data(), "header");
  const unsigned char* h = header.data();
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

  std::array<unsigned char, kTrailerSize> trailer{};
  read_at(file_bytes_ - kTrailerSize, kTrailerSize, trailer.data(), "trailer");
  const unsigned char* t = trailer.data();
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
  std::vector<unsigned char> footer(footer_size);
  read_at(footer_offset, footer_size, footer.data(), "footer");
  if (crc32(footer.data(), footer.size()) != footer_crc) {
    fail(path, "footer CRC mismatch");
  }
  if (footer_size < 4) fail(path, "footer too small");
  const unsigned char* f = footer.data();
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

void Reader::read_at(std::uint64_t offset, std::size_t size, unsigned char* out,
                     const char* what) const {
  while (size > 0) {
    const ssize_t got =
        ::pread(file_.fd, out, size, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) fail(path_, std::string("cannot read ") + what);
    if (got == 0) fail(path_, std::string("truncated ") + what);
    out += got;
    offset += static_cast<std::uint64_t>(got);
    size -= static_cast<std::size_t>(got);
  }
}

std::size_t Reader::chunk_payload(std::size_t chunk,
                                  std::vector<unsigned char>& buffer) const {
  if (chunk >= index_.size()) fail(path_, "chunk index out of range");
  const ChunkEntry& entry = index_[chunk];
  std::array<unsigned char, 8> frame_header{};
  read_at(entry.offset, frame_header.size(), frame_header.data(), "chunk header");
  const std::uint32_t payload_size = get_u32(frame_header.data());
  const std::uint32_t record_count = get_u32(frame_header.data() + 4);
  if (record_count != entry.records) {
    fail(path_, "chunk record count disagrees with footer index");
  }
  if (entry.offset + 8 + payload_size + 4 > file_bytes_ - kTrailerSize) {
    fail(path_, "chunk payload overruns file");
  }
  const std::size_t framed = std::size_t{payload_size} + 4;  // payload + CRC
  if (buffer.size() < framed) buffer.resize(framed);  // never shrinks
  read_at(entry.offset + 8, framed, buffer.data(), "chunk payload");
  if (crc32(buffer.data(), payload_size) != get_u32(buffer.data() + payload_size)) {
    fail(path_, "chunk " + std::to_string(chunk) +
                    " CRC mismatch (corrupt payload)");
  }
  return payload_size;
}

std::vector<trace::QueryReplyPair> Reader::read_pairs_chunk(
    std::size_t chunk) const {
  std::vector<trace::QueryReplyPair> records;
  std::vector<unsigned char> payload;
  read_pairs_chunk(chunk, records, payload);
  return records;
}

void Reader::read_pairs_chunk(std::size_t chunk,
                              std::vector<trace::QueryReplyPair>& out,
                              std::vector<unsigned char>& payload) const {
  require_kind(StreamKind::pairs);
  auto& registry = obs::Registry::global();
  static obs::Timer& decode_timer = registry.timer("store.chunk_decode");
  static obs::Counter& chunks = registry.counter("store.chunks_decoded");
  static obs::Counter& records_decoded =
      registry.counter("store.records_decoded");
  const obs::Timer::Scope scope = decode_timer.measure();
  const std::size_t size = chunk_payload(chunk, payload);
  out.resize(index_[chunk].records);
  decode_pairs(payload.data(), size, out, path_);
  chunks.add(1);
  records_decoded.add(out.size());
}

std::vector<trace::QueryRecord> Reader::read_queries_chunk(
    std::size_t chunk) const {
  require_kind(StreamKind::queries);
  std::vector<unsigned char> payload;
  const std::size_t size = chunk_payload(chunk, payload);
  std::vector<trace::QueryRecord> records(index_[chunk].records);
  decode_queries(payload.data(), size, records, path_);
  return records;
}

std::vector<trace::ReplyRecord> Reader::read_replies_chunk(
    std::size_t chunk) const {
  require_kind(StreamKind::replies);
  std::vector<unsigned char> payload;
  const std::size_t size = chunk_payload(chunk, payload);
  std::vector<trace::ReplyRecord> records(index_[chunk].records);
  decode_replies(payload.data(), size, records, path_);
  return records;
}

std::vector<trace::QueryReplyPair> Reader::read_all_pairs() const {
  require_kind(StreamKind::pairs);
  // Bulk path: map the whole file once, then every chunk is CRC-checked and
  // decoded in place into its slice of the output table — no payload
  // copies or intermediate vectors.
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_bytes_), PROT_READ,
                     MAP_PRIVATE, file_.fd, 0);
  if (map == MAP_FAILED) fail(path_, "mmap failed");
  struct Unmap {
    void* p;
    std::size_t n;
    ~Unmap() { ::munmap(p, n); }
  } guard{map, static_cast<std::size_t>(file_bytes_)};
#if defined(MADV_SEQUENTIAL)
  ::madvise(map, guard.n, MADV_SEQUENTIAL);
#endif
  const auto* base = static_cast<const unsigned char*>(map);

  std::vector<trace::QueryReplyPair> pairs(records_);
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
