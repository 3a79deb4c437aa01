#include "store/log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace intooa::store {

namespace {

constexpr std::size_t kFrameHeaderSize = 8;  // u32 length, u32 crc32

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// pread exactly `n` bytes at `offset`; false on EOF-before-n or error.
bool pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    offset += static_cast<std::uint64_t>(got);
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

void pwrite_exact(int fd, std::string_view bytes, std::uint64_t offset,
                  const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t put =
        ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (put < 0) {
      if (errno == EINTR) continue;
      fail("pwrite " + path);
    }
    bytes.remove_prefix(static_cast<std::size_t>(put));
    offset += static_cast<std::uint64_t>(put);
  }
}

}  // namespace

std::string log_header(const LogFormat& format) {
  std::string out;
  out.reserve(kLogHeaderSize);
  out.append(format.magic);
  util::WireWriter writer(out);
  writer.u32(format.version);
  writer.u32(0);  // reserved
  return out;
}

std::uint32_t append_frame(std::string& out, std::string_view payload) {
  const std::uint32_t crc = util::crc32(payload);
  util::WireWriter writer(out);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.u32(crc);
  out.append(payload);
  return crc;
}

LogFile::LogFile(const LogFormat& format, std::string path, Mode mode)
    : format_(format), path_(std::move(path)) {
  if (mode == Mode::Create) {
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  } else {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd_ < 0) fail("cannot open " + path_);
}

LogFile::~LogFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t LogFile::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) fail("fstat " + path_);
  return static_cast<std::uint64_t>(st.st_size);
}

std::uint64_t LogFile::init_header() {
  const std::uint64_t size = this->size();
  if (size >= kLogHeaderSize) {
    verify_header();
    return 0;
  }
  // Zero-length or torn at creation: the longest valid prefix is empty, so
  // the header is (re)written in place — never renamed over a file another
  // process may already have opened.
  const std::string header = log_header(format_);
  std::string head(static_cast<std::size_t>(size), '\0');
  if (!pread_exact(fd_, head.data(), head.size(), 0)) {
    fail("cannot read " + path_);
  }
  if (head != std::string_view(header).substr(0, head.size())) {
    throw std::runtime_error(path_ + " is not " + std::string(format_.noun));
  }
  pwrite_exact(fd_, header, 0, path_);
  util::fsync_fd(fd_, path_);
  util::fsync_parent_dir(path_);
  if (size > 0) {
    util::log_warn(path_ + ": reinitialized torn header",
                   {{"dropped_bytes", size}});
  }
  return size;
}

void LogFile::verify_header() const {
  std::string head(kLogHeaderSize, '\0');
  if (!pread_exact(fd_, head.data(), head.size(), 0) ||
      std::string_view(head).substr(0, format_.magic.size()) !=
          format_.magic) {
    throw std::runtime_error(path_ + " is not " + std::string(format_.noun));
  }
  util::WireReader reader(std::string_view(head).substr(format_.magic.size()));
  std::uint32_t version = 0, reserved = 0;
  reader.u32(version);
  reader.u32(reserved);
  if (version != format_.version) {
    throw std::runtime_error(
        path_ + " has incompatible format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(format_.version) +
        "); use a matching build or a fresh file");
  }
  if (reserved != 0) {
    throw std::runtime_error(path_ + " has a corrupt header");
  }
}

std::uint64_t LogFile::scan(std::uint64_t offset,
                            const FrameFn& on_frame) const {
  const std::uint64_t size = this->size();
  std::string payload;
  while (offset + kFrameHeaderSize <= size) {
    std::uint32_t header[2] = {0, 0};  // length, crc
    if (!pread_exact(fd_, header, sizeof header, offset)) break;
    Frame frame{offset + kFrameHeaderSize, header[0], header[1]};
    if (frame.length > format_.max_payload ||
        size - frame.offset < frame.length) {
      break;  // torn or insane frame: the valid prefix ends here
    }
    payload.resize(frame.length);
    if (!pread_exact(fd_, payload.data(), payload.size(), frame.offset) ||
        util::crc32(payload) != frame.crc || !on_frame(frame, payload)) {
      break;
    }
    offset = frame.offset + frame.length;
  }
  return offset;
}

std::uint64_t LogFile::truncate(std::uint64_t end) {
  const std::uint64_t size = this->size();
  if (size <= end) return 0;
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
    fail("ftruncate " + path_);
  }
  util::fsync_fd(fd_, path_);
  util::log_warn(path_ + ": dropped corrupt tail",
                 {{"dropped_bytes", size - end}, {"valid_bytes", end}});
  return size - end;
}

LogFile::Frame LogFile::append(std::uint64_t offset,
                               std::string_view payload) {
  if (payload.size() > format_.max_payload) {
    throw std::length_error(path_ + ": frame payload exceeds " +
                            std::to_string(format_.max_payload) + " bytes");
  }
  std::string bytes;
  bytes.reserve(kFrameHeaderSize + payload.size());
  const std::uint32_t crc = append_frame(bytes, payload);
  pwrite_exact(fd_, bytes, offset, path_);
  util::fsync_fd(fd_, path_);
  return {offset + kFrameHeaderSize,
          static_cast<std::uint32_t>(payload.size()), crc};
}

std::optional<std::string> LogFile::read(const Frame& frame) const {
  std::string payload(frame.length, '\0');
  if (!pread_exact(fd_, payload.data(), payload.size(), frame.offset) ||
      util::crc32(payload) != frame.crc) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace intooa::store
