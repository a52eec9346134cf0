#include "lsm/manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cinttypes>
#include <fstream>
#include <sstream>
#include <system_error>

#include "lsm/fault.hpp"
#include "util/bytes.hpp"

namespace aar::lsm {

namespace {

constexpr const char* kMagicLine = "aar.lsmmanifest.v1";

[[noreturn]] void io_error(const std::string& path, const char* what) {
  throw std::system_error(errno, std::generic_category(),
                          "lsm manifest " + path + ": " + what);
}

/// Read a whole file; returns false (without throwing) when it does not
/// exist.  Other I/O errors throw.
bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    io_error(path, "open failed");
  }
  out.clear();
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_error(path, "read failed");
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

void write_file_synced(const std::string& path, const std::string& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_error(path, "open for write failed");
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_error(path, "write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_error(path, "fsync failed");
  }
  if (::close(fd) != 0) io_error(path, "close failed");
}

bool exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

std::string encode_manifest(const Manifest& manifest) {
  std::ostringstream body;
  body << kMagicLine << '\n';
  body << "version " << manifest.version << '\n';
  body << "next_file " << manifest.next_file << '\n';
  for (const ManifestRun& run : manifest.runs) {
    body << "run " << run.level << ' ' << run.file << ' ' << run.entries
         << '\n';
  }
  std::string out = body.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof crc_line, "crc %08" PRIx32,
                util::crc32(out.data(), out.size()));
  out += crc_line;
  out += '\n';
  return out;
}

bool decode_manifest(std::string_view bytes, Manifest& out) {
  // Split off the final "crc XXXXXXXX\n" line and check it first.
  if (bytes.empty() || bytes.back() != '\n') return false;
  const std::size_t crc_start = bytes.rfind('\n', bytes.size() - 2);
  if (crc_start == std::string_view::npos) return false;
  const std::string_view body = bytes.substr(0, crc_start + 1);
  const std::string_view crc_line =
      bytes.substr(crc_start + 1, bytes.size() - crc_start - 2);
  std::uint32_t declared = 0;
  if (std::sscanf(std::string(crc_line).c_str(), "crc %8x", &declared) != 1) {
    return false;
  }
  if (util::crc32(body.data(), body.size()) != declared) return false;

  Manifest parsed;
  std::istringstream in{std::string(body)};
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) return false;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "version %" SCNu64, &parsed.version) != 1) {
    return false;
  }
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "next_file %" SCNu64, &parsed.next_file) != 1) {
    return false;
  }
  while (std::getline(in, line)) {
    ManifestRun run;
    char file[256];
    if (std::sscanf(line.c_str(), "run %" SCNu32 " %255s %" SCNu64, &run.level,
                    file, &run.entries) != 3) {
      return false;
    }
    run.file = file;
    parsed.runs.push_back(std::move(run));
  }
  out = std::move(parsed);
  return true;
}

void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_error(dir, "open dir failed");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_error(dir, "fsync dir failed");
  }
  ::close(fd);
}

void install_manifest(const std::string& dir, const Manifest& manifest) {
  const std::string tmp = dir + "/" + kManifestTmpName;
  const std::string current = dir + "/" + kManifestName;
  const std::string prev = dir + "/" + kManifestPrevName;

  write_file_synced(tmp, encode_manifest(manifest));
  fault_point("manifest.tmp");

  if (exists(current)) {
    if (::rename(current.c_str(), prev.c_str()) != 0) {
      io_error(current, "rename to .prev failed");
    }
    fault_point("manifest.retired");
  }
  if (::rename(tmp.c_str(), current.c_str()) != 0) {
    io_error(tmp, "rename into place failed");
  }
  sync_dir(dir);
  fault_point("manifest.installed");
}

std::vector<LoadedManifest> manifest_candidates(const std::string& dir) {
  std::vector<LoadedManifest> out;
  for (const char* name : {kManifestName, kManifestPrevName}) {
    std::string bytes;
    if (!read_file(dir + "/" + name, bytes)) continue;
    Manifest manifest;
    if (!decode_manifest(bytes, manifest)) continue;
    LoadedManifest loaded;
    loaded.manifest = std::move(manifest);
    loaded.source = name;
    loaded.bytes = std::move(bytes);
    out.push_back(std::move(loaded));
  }
  return out;
}

LoadedManifest load_manifest(const std::string& dir) {
  std::vector<LoadedManifest> candidates = manifest_candidates(dir);
  if (candidates.empty()) return LoadedManifest{};
  return std::move(candidates.front());
}

}  // namespace aar::lsm
