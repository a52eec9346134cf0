#include "lsm/run.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "lsm/fault.hpp"
#include "util/bytes.hpp"

namespace aar::lsm {

namespace {

using util::crc32;
using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;
using util::put_varint;

constexpr char kHeaderMagic[8] = {'a', 'a', 'r', 'L', 'S', 'M', 'r', '1'};
constexpr char kFooterMagic[8] = {'a', 'a', 'r', 'L', 'S', 'M', 'e', '1'};
constexpr std::size_t kFooterSize = 44;

[[noreturn]] void io_error(const std::string& path, const char* what) {
  throw std::system_error(errno, std::generic_category(),
                          "lsm run " + path + ": " + what);
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  [[nodiscard]] int release() noexcept {
    const int out = fd;
    fd = -1;
    return out;
  }
};

void write_all(int fd, const std::string& path, const char* data,
               std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error(path, "write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, const std::string& path, std::uint64_t offset,
               char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error(path, "pread failed");
    }
    if (n == 0) throw CorruptBlock("lsm run " + path + ": unexpected EOF");
    data += n;
    offset += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

/// Filter/index blocks use a lighter frame than data blocks (no entry
/// count): u32 size | payload | u32 crc32.
void append_meta_block(std::string& file, const std::string& payload) {
  put_u32(file, static_cast<std::uint32_t>(payload.size()));
  file += payload;
  put_u32(file, crc32(payload.data(), payload.size()));
}

std::string read_meta_block(int fd, const std::string& path,
                            std::uint64_t offset, std::uint32_t size) {
  if (size < 8) throw CorruptBlock("lsm run " + path + ": short meta block");
  std::string raw(size, '\0');
  pread_all(fd, path, offset, raw.data(), raw.size());
  const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
  const std::uint32_t payload_size = get_u32(data);
  if (payload_size != size - 8) {
    throw CorruptBlock("lsm run " + path + ": meta block size mismatch");
  }
  if (crc32(raw.data() + 4, payload_size) != get_u32(data + 4 + payload_size)) {
    throw CorruptBlock("lsm run " + path + ": meta block CRC mismatch");
  }
  return raw.substr(4, payload_size);
}

/// Verify the data-block frame CRC in `raw` (the exact framed bytes).
void verify_frame(const std::string& raw, const std::string& path) {
  const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
  if (raw.size() < 12) {
    throw CorruptBlock("lsm run " + path + ": short data block");
  }
  const std::uint32_t payload_size = get_u32(data);
  if (8 + static_cast<std::size_t>(payload_size) + 4 != raw.size()) {
    throw CorruptBlock("lsm run " + path + ": data block size mismatch");
  }
  if (crc32(raw.data() + 8, payload_size) != get_u32(data + 8 + payload_size)) {
    throw CorruptBlock("lsm run " + path + ": data block CRC mismatch");
  }
}

}  // namespace

// ------------------------------------------------------------------ write_run

std::uint64_t write_run_stream(const std::string& path,
                               const std::function<bool(Entry&)>& next,
                               std::uint64_t bloom_keys_hint,
                               const RunWriterOptions& options) {
  Fd fd;
  fd.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd.fd < 0) io_error(path, "open for write failed");

  write_all(fd.fd, path, kHeaderMagic, sizeof kHeaderMagic);
  std::uint64_t offset = sizeof kHeaderMagic;

  const std::string block_point = options.fault_prefix + ".block";
  Bloom bloom(bloom_keys_hint, options.bits_per_key);

  std::string index_payload;
  std::uint32_t block_count = 0;
  std::string index_body;  // per-block records, prefixed by count later

  BlockBuilder builder(options.restart_interval);
  std::string block;
  Key block_last = 0;
  HostId last_antecedent = 0;
  bool bloom_started = false;
  std::uint64_t written = 0;
  auto seal_block = [&] {
    if (builder.empty()) return;
    block.clear();
    builder.finish(block);
    write_all(fd.fd, path, block.data(), block.size());
    put_u64(index_body, offset);
    put_varint(index_body, block.size());
    put_u64(index_body, block_last);
    offset += block.size();
    ++block_count;
    fault_point(block_point);
  };

  Entry entry;
  while (next(entry)) {
    const HostId antecedent = key_antecedent(entry.key);
    if (!bloom_started || antecedent != last_antecedent) bloom.add(antecedent);
    bloom_started = true;
    last_antecedent = antecedent;
    builder.add(entry.key, entry.count);
    block_last = entry.key;
    ++written;
    if (builder.size_estimate() >= options.block_bytes) seal_block();
  }
  seal_block();

  std::string tail;
  const std::uint64_t filter_offset = offset;
  append_meta_block(tail, bloom.serialize());
  const std::uint32_t filter_size = static_cast<std::uint32_t>(tail.size());

  put_varint(index_payload, block_count);
  index_payload += index_body;
  const std::uint64_t index_offset = filter_offset + filter_size;
  const std::size_t index_start = tail.size();
  append_meta_block(tail, index_payload);
  const std::uint32_t index_size =
      static_cast<std::uint32_t>(tail.size() - index_start);

  std::string footer;
  put_u64(footer, filter_offset);
  put_u32(footer, filter_size);
  put_u64(footer, index_offset);
  put_u32(footer, index_size);
  put_u64(footer, written);
  put_u32(footer, crc32(footer.data(), footer.size()));
  footer.append(kFooterMagic, sizeof kFooterMagic);
  tail += footer;

  write_all(fd.fd, path, tail.data(), tail.size());
  if (::fsync(fd.fd) != 0) io_error(path, "fsync failed");
  if (::close(fd.release()) != 0) io_error(path, "close failed");
  return written;
}

std::uint64_t write_run(const std::string& path,
                        const std::vector<Entry>& entries,
                        const RunWriterOptions& options) {
  std::size_t distinct_antecedents = 0;
  HostId last = 0;
  bool first = true;
  for (const Entry& entry : entries) {
    const HostId antecedent = key_antecedent(entry.key);
    if (first || antecedent != last) ++distinct_antecedents;
    last = antecedent;
    first = false;
  }
  std::size_t pos = 0;
  return write_run_stream(
      path,
      [&](Entry& out) {
        if (pos >= entries.size()) return false;
        out = entries[pos++];
        return true;
      },
      distinct_antecedents, options);
}

// ------------------------------------------------------------------ RunReader

std::shared_ptr<RunReader> RunReader::open(const std::string& path,
                                           bool verify_blocks) {
  Fd fd;
  fd.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd.fd < 0) io_error(path, "open for read failed");

  const off_t file_size = ::lseek(fd.fd, 0, SEEK_END);
  if (file_size < 0) io_error(path, "lseek failed");
  if (static_cast<std::size_t>(file_size) < sizeof kHeaderMagic + kFooterSize) {
    throw CorruptBlock("lsm run " + path + ": file too small");
  }

  char header[sizeof kHeaderMagic];
  pread_all(fd.fd, path, 0, header, sizeof header);
  if (std::memcmp(header, kHeaderMagic, sizeof header) != 0) {
    throw CorruptBlock("lsm run " + path + ": bad header magic");
  }

  std::string footer(kFooterSize, '\0');
  pread_all(fd.fd, path, static_cast<std::uint64_t>(file_size) - kFooterSize,
            footer.data(), footer.size());
  if (std::memcmp(footer.data() + kFooterSize - 8, kFooterMagic, 8) != 0) {
    throw CorruptBlock("lsm run " + path + ": bad footer magic");
  }
  const auto* raw = reinterpret_cast<const unsigned char*>(footer.data());
  if (crc32(footer.data(), 32) != get_u32(raw + 32)) {
    throw CorruptBlock("lsm run " + path + ": footer CRC mismatch");
  }

  auto run = std::shared_ptr<RunReader>(new RunReader());
  run->path_ = path;
  const std::uint64_t filter_offset = get_u64(raw);
  const std::uint32_t filter_size = get_u32(raw + 8);
  const std::uint64_t index_offset = get_u64(raw + 12);
  const std::uint32_t index_size = get_u32(raw + 20);
  run->entries_ = get_u64(raw + 24);
  const std::uint64_t limit = static_cast<std::uint64_t>(file_size);
  if (filter_offset + filter_size > limit || index_offset + index_size > limit) {
    throw CorruptBlock("lsm run " + path + ": footer offsets out of bounds");
  }

  run->bloom_ =
      Bloom::deserialize(read_meta_block(fd.fd, path, filter_offset, filter_size));

  const std::string index = read_meta_block(fd.fd, path, index_offset, index_size);
  util::ByteReader reader(
      reinterpret_cast<const unsigned char*>(index.data()), index.size());
  std::uint64_t block_count = 0;
  try {
    block_count = reader.varint();
    run->index_.reserve(block_count);
    for (std::uint64_t i = 0; i < block_count; ++i) {
      BlockHandle handle;
      handle.offset = reader.u64();
      handle.size = static_cast<std::uint32_t>(reader.varint());
      handle.last_key = reader.u64();
      run->index_.push_back(handle);
    }
  } catch (const CorruptBlock&) {
    throw CorruptBlock("lsm run " + path + ": truncated index");
  }
  std::uint64_t expected_offset = sizeof kHeaderMagic;
  for (const BlockHandle& handle : run->index_) {
    if (handle.offset != expected_offset ||
        handle.offset + handle.size > filter_offset) {
      throw CorruptBlock("lsm run " + path + ": index offsets inconsistent");
    }
    expected_offset += handle.size;
  }
  if (expected_offset != filter_offset) {
    throw CorruptBlock("lsm run " + path + ": data region size mismatch");
  }

  run->fd_ = fd.release();

  if (verify_blocks) {
    std::uint64_t verified = 0;
    std::vector<Entry> scratch;
    for (const BlockHandle& handle : run->index_) {
      const std::string block = run->read_block(handle);
      scratch.clear();
      std::size_t consumed = 0;
      decode_block(reinterpret_cast<const unsigned char*>(block.data()),
                   block.size(), scratch, consumed);
      if (!scratch.empty() && scratch.back().key != handle.last_key) {
        throw CorruptBlock("lsm run " + path + ": index last_key mismatch");
      }
      verified += scratch.size();
    }
    if (verified != run->entries_) {
      throw CorruptBlock("lsm run " + path + ": entry count mismatch");
    }
  }
  return run;
}

RunReader::~RunReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::string RunReader::read_block(const BlockHandle& handle) const {
  std::string raw(handle.size, '\0');
  pread_all(fd_, path_, handle.offset, raw.data(), raw.size());
  verify_frame(raw, path_);
  return raw;
}

bool RunReader::get(Key key, std::int64_t& count) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const BlockHandle& handle, Key k) { return handle.last_key < k; });
  if (it == index_.end()) return false;
  const std::string block = read_block(*it);
  return block_find(reinterpret_cast<const unsigned char*>(block.data()),
                    block.size(), key, count);
}

void RunReader::for_antecedent(HostId antecedent,
                               std::vector<Entry>& out) const {
  const Key begin = antecedent_begin(antecedent);
  const Key end = begin | 0xffffffffull;
  auto it = std::lower_bound(
      index_.begin(), index_.end(), begin,
      [](const BlockHandle& handle, Key k) { return handle.last_key < k; });
  std::vector<Entry> scratch;
  for (; it != index_.end(); ++it) {
    const std::string block = read_block(*it);
    scratch.clear();
    std::size_t consumed = 0;
    decode_block(reinterpret_cast<const unsigned char*>(block.data()),
                 block.size(), scratch, consumed);
    for (const Entry& entry : scratch) {
      if (entry.key < begin) continue;
      if (entry.key > end) return;
      out.push_back(entry);
    }
  }
}

void RunReader::Iterator::next() {
  ++pos_;
  if (pos_ >= block_.size()) next_block();
}

void RunReader::Iterator::next_block() {
  block_.clear();
  pos_ = 0;
  if (block_index_ >= run_->index_.size()) return;
  const std::string raw = run_->read_block(run_->index_[block_index_]);
  ++block_index_;
  std::size_t consumed = 0;
  decode_block(reinterpret_cast<const unsigned char*>(raw.data()), raw.size(),
               block_, consumed);
}

}  // namespace aar::lsm
