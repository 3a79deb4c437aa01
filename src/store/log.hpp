#pragma once
// The one on-disk layout of every intooa persistence file — the evaluation
// store, the scheduler's job journal and evaluator checkpoints
// (docs/PERSISTENCE.md):
//
//   header : 16-byte magic | u32 version | u32 reserved (zero)
//   frame* : u32 payload_len | u32 crc32(payload) | payload
//
// all little-endian. A file format is one LogFormat constant (magic,
// version, payload cap) plus its own payload codec and locking policy; this
// module owns everything around the payloads: creating and verifying the
// header, the frame scan that finds the valid prefix, truncating a torn or
// corrupt tail, and the durable one-pwrite-plus-fsync frame append.
//
// LogFile takes no locks: callers that share a file between processes
// serialize creation, scans and appends with flock on fd().

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace intooa::store {

/// Identity of one file format. Every field is a per-format constant.
struct LogFormat {
  std::string_view magic;     ///< exactly 16 bytes
  std::uint32_t version = 0;  ///< bumped on any payload layout change
  std::uint32_t max_payload = 0;  ///< a longer frame length is corruption
  std::string_view noun;      ///< "an intooa evaluation store", for errors
};

inline constexpr std::size_t kLogHeaderSize = 24;

/// The 24 header bytes of `format`.
std::string log_header(const LogFormat& format);

/// Appends one frame (length, crc32, payload) to `out`; returns the crc.
std::uint32_t append_frame(std::string& out, std::string_view payload);

/// An open log file.
class LogFile {
 public:
  enum class Mode {
    ReadOnly,  ///< an existing file
    Create,    ///< read-write; an absent file (and its parent directories)
               ///< is created empty with O_CREAT, never by a rename
  };

  /// Where one intact frame's payload lies.
  struct Frame {
    std::uint64_t offset = 0;  ///< payload offset in the file
    std::uint32_t length = 0;  ///< payload length
    std::uint32_t crc = 0;     ///< crc32 of the payload
  };

  /// Receives each intact payload; returning false ends the valid prefix
  /// before this frame.
  using FrameFn =
      std::function<bool(const Frame& frame, std::string_view payload)>;

  /// Opens `path`. Throws std::runtime_error on failure.
  LogFile(const LogFormat& format, std::string path, Mode mode);
  ~LogFile();

  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  std::uint64_t size() const;

  /// Creates or verifies the header; the caller holds the file's exclusive
  /// lock. A zero-length file gets a fresh header. A non-empty proper
  /// prefix of the header (a crash during creation) is reinitialized, and
  /// its length is returned as recovered bytes. Either write is followed by
  /// an fsync of the file and its parent directory. Anything else must be a
  /// full header of this format, as verify_header() checks.
  std::uint64_t init_header();

  /// Throws std::runtime_error unless the file starts with this format's
  /// header: "is not <noun>" for a foreign file, a message naming both
  /// versions for a version mismatch.
  void verify_header() const;

  /// Scans frames from `offset` (a frame boundary) to EOF, calling
  /// `on_frame` with each intact payload. Stops at the first frame that is
  /// torn, longer than the format's cap, fails its CRC, or is rejected by
  /// `on_frame`. Returns the end of the valid prefix.
  std::uint64_t scan(std::uint64_t offset, const FrameFn& on_frame) const;

  /// Cuts the file back to `end` and fsyncs it, logging a warning. Returns
  /// the number of bytes dropped (0, touching nothing, when the file ends
  /// at `end`).
  std::uint64_t truncate(std::uint64_t end);

  /// Writes one frame at `offset` with one pwrite, then fsyncs. Throws
  /// std::length_error when the payload exceeds the format's cap and
  /// std::runtime_error on I/O failure.
  Frame append(std::uint64_t offset, std::string_view payload);

  /// The payload of `frame`, or nullopt on a short read or CRC mismatch.
  std::optional<std::string> read(const Frame& frame) const;

 private:
  LogFormat format_;
  std::string path_;
  int fd_ = -1;
};

}  // namespace intooa::store
