#include "store/writer.hpp"

#include <bit>
#include <stdexcept>

#include "util/bytes.hpp"

namespace aar::store {

namespace {

using util::crc32;
using util::put_u32;
using util::put_u64;
using util::put_varint;
using util::zigzag;

/// Append the zigzag varint of `bits - prev` and advance the delta chain.
/// Timestamps are monotone doubles, whose IEEE-754 bit patterns are monotone
/// for non-negative values, so successive deltas are small positive integers.
/// GUIDs get no delta treatment: they are effectively random u64s, and the
/// delta of two random u64s is a 9-10 byte varint — worse than the fixed
/// 8-byte column, and far slower to decode.
void put_delta(std::string& out, std::uint64_t bits, std::uint64_t& prev) {
  put_varint(out, zigzag(static_cast<std::int64_t>(bits - prev)));
  prev = bits;
}

std::string encode_chunk(std::span<const trace::QueryRecord> records) {
  std::string payload;
  payload.reserve(records.size() * 14);
  std::uint64_t prev = 0;
  for (const auto& r : records) put_delta(payload, std::bit_cast<std::uint64_t>(r.time), prev);
  for (const auto& r : records) put_u64(payload, r.guid);
  for (const auto& r : records) put_varint(payload, r.source_host);
  for (const auto& r : records) put_varint(payload, r.query);
  return payload;
}

std::string encode_chunk(std::span<const trace::ReplyRecord> records) {
  std::string payload;
  payload.reserve(records.size() * 15);
  std::uint64_t prev = 0;
  for (const auto& r : records) put_delta(payload, std::bit_cast<std::uint64_t>(r.time), prev);
  for (const auto& r : records) put_u64(payload, r.guid);
  for (const auto& r : records) put_varint(payload, r.replying_neighbor);
  for (const auto& r : records) put_varint(payload, r.serving_host);
  for (const auto& r : records) put_varint(payload, r.file);
  return payload;
}

std::string encode_chunk(std::span<const trace::QueryReplyPair> records) {
  std::string payload;
  payload.reserve(records.size() * 15);
  std::uint64_t prev = 0;
  for (const auto& r : records) put_delta(payload, std::bit_cast<std::uint64_t>(r.time), prev);
  for (const auto& r : records) put_u64(payload, r.guid);
  for (const auto& r : records) put_varint(payload, r.source_host);
  for (const auto& r : records) put_varint(payload, r.replying_neighbor);
  for (const auto& r : records) put_varint(payload, r.query);
  return payload;
}

std::string encode_header(StreamKind kind, std::uint64_t record_count,
                          std::uint32_t chunk_records) {
  std::string header;
  header.reserve(kHeaderSize);
  put_u64(header, kMagic);
  put_u32(header, kFormatVersion);
  header.push_back(static_cast<char>(kind));
  header.append(3, '\0');
  put_u64(header, record_count);
  put_u32(header, chunk_records);
  put_u32(header, crc32(header.data(), header.size()));
  return header;
}

}  // namespace

Writer::Writer(const std::string& path, StreamKind kind,
               std::uint32_t chunk_records)
    : path_(path),
      kind_(kind),
      chunk_records_(chunk_records == 0 ? 1 : chunk_records),
      out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("aartr: cannot open " + path + " for writing");
  const std::string header = encode_header(kind_, 0, chunk_records_);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  write_offset_ = header.size();
}

Writer::~Writer() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; call close() explicitly to observe errors.
  }
}

void Writer::require_kind(StreamKind kind) const {
  if (kind_ != kind) {
    throw std::logic_error(std::string("aartr: writer for ") + to_string(kind_) +
                           " stream fed a " + to_string(kind) + " record");
  }
}

void Writer::add(const trace::QueryRecord& record) {
  require_kind(StreamKind::queries);
  query_buffer_.push_back(record);
  ++records_;
  if (query_buffer_.size() >= chunk_records_) flush_chunk();
}

void Writer::add(const trace::ReplyRecord& record) {
  require_kind(StreamKind::replies);
  reply_buffer_.push_back(record);
  ++records_;
  if (reply_buffer_.size() >= chunk_records_) flush_chunk();
}

void Writer::add(const trace::QueryReplyPair& record) {
  require_kind(StreamKind::pairs);
  pair_buffer_.push_back(record);
  ++records_;
  if (pair_buffer_.size() >= chunk_records_) flush_chunk();
}

void Writer::write_frame(const std::string& payload,
                         std::uint32_t record_count) {
  std::string frame;
  frame.reserve(payload.size() + 12);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, record_count);
  frame += payload;
  put_u32(frame, crc32(payload.data(), payload.size()));
  index_.push_back({write_offset_, record_count});
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  write_offset_ += frame.size();
}

void Writer::flush_chunk() {
  std::string payload;
  std::uint32_t count = 0;
  switch (kind_) {
    case StreamKind::queries:
      count = static_cast<std::uint32_t>(query_buffer_.size());
      payload = encode_chunk(std::span<const trace::QueryRecord>(query_buffer_));
      query_buffer_.clear();
      break;
    case StreamKind::replies:
      count = static_cast<std::uint32_t>(reply_buffer_.size());
      payload = encode_chunk(std::span<const trace::ReplyRecord>(reply_buffer_));
      reply_buffer_.clear();
      break;
    case StreamKind::pairs:
      count = static_cast<std::uint32_t>(pair_buffer_.size());
      payload = encode_chunk(std::span<const trace::QueryReplyPair>(pair_buffer_));
      pair_buffer_.clear();
      break;
  }
  if (count == 0) return;
  write_frame(payload, count);
}

void Writer::close() {
  if (closed_) return;
  flush_chunk();

  std::string footer;
  footer.reserve(4 + index_.size() * 12);
  put_u32(footer, static_cast<std::uint32_t>(index_.size()));
  for (const ChunkEntry& entry : index_) {
    put_u64(footer, entry.offset);
    put_u32(footer, entry.records);
  }
  const std::uint64_t footer_offset = write_offset_;
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));

  std::string trailer;
  trailer.reserve(kTrailerSize);
  put_u64(trailer, footer_offset);
  put_u32(trailer, crc32(footer.data(), footer.size()));
  put_u64(trailer, kEndMagic);
  out_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));

  // Patch the now-known record count into the header.
  out_.seekp(0);
  const std::string header = encode_header(kind_, records_, chunk_records_);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("aartr: write failed for " + path_);
  out_.close();
  closed_ = true;
}

void write_pairs_file(const std::string& path,
                      std::span<const trace::QueryReplyPair> pairs,
                      std::uint32_t chunk_records) {
  Writer writer(path, StreamKind::pairs, chunk_records);
  for (const auto& pair : pairs) writer.add(pair);
  writer.close();
}

void write_queries_file(const std::string& path,
                        std::span<const trace::QueryRecord> queries,
                        std::uint32_t chunk_records) {
  Writer writer(path, StreamKind::queries, chunk_records);
  for (const auto& query : queries) writer.add(query);
  writer.close();
}

void write_replies_file(const std::string& path,
                        std::span<const trace::ReplyRecord> replies,
                        std::uint32_t chunk_records) {
  Writer writer(path, StreamKind::replies, chunk_records);
  for (const auto& reply : replies) writer.add(reply);
  writer.close();
}

}  // namespace aar::store
