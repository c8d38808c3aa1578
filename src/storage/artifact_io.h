#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "linalg/matrix.h"

namespace sam {

/// \brief Crash-safe binary artifact I/O shared by every durable file the
/// system writes (model weights, training checkpoints).
///
/// Artifacts are single files with a fixed header:
///
///   u32 magic ("SAMA")  u32 container version  char kind[8]
///   u32 artifact version  u32 crc32(payload)  u64 payload size  payload...
///
/// Every durable file — buffered (`AtomicWriteFile`, `ArtifactWriter`) or
/// streamed (`AtomicFileWriter`) — is staged in `path + ".tmp"` and published
/// by one commit barrier: fsync → rename → fsync(dir), so a crash at any
/// instant leaves either the previous file intact or a temp file the reader
/// never looks at. Readers validate magic, kind, declared payload length and
/// the CRC32 before exposing a single byte, so truncation and bit rot surface
/// as a clean `Status` instead of partially-applied state.
///
/// Byte order is host order; artifacts are an internal persistence format,
/// not a cross-architecture interchange format (the CI fleet is
/// little-endian x86-64).

/// CRC32 (IEEE 802.3 polynomial, as used by zlib). `seed` chains blocks.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// \brief Test seam: injectable failures in the artifact commit path.
///
/// Faults simulate crashes and disk corruption, so an injected failure
/// deliberately leaves the filesystem exactly as a real crash would (torn
/// temp files are NOT cleaned up). Production code never sets these.
struct ArtifactFaultInjection {
  /// Number of successful commits to allow before the fault fires
  /// (0 = fire on the next commit). Decremented per commit.
  int skip_commits = 0;
  /// >= 0: the temp-file write stops after this many bytes and Commit
  /// returns IOError, simulating a crash mid-write.
  long long fail_write_at_byte = -1;
  /// Write only half the bytes but report success (lying close / lost
  /// cache flush): the *final* file is truncated, detectable on read.
  bool truncate_on_close = false;
  /// Crash after the temp file is complete but before the rename: Commit
  /// returns IOError, the target path is untouched.
  bool torn_rename = false;
  /// >= 0: after a fully successful commit, flip one bit at this byte
  /// offset (mod file size) in the final file, simulating bit rot.
  long long bit_flip_at_byte = -1;
  /// The disk is full: the write fails with ENOSPC semantics. Unlike the
  /// crash modes above this is a *reported* error, so the commit path cleans
  /// up its staged temp file and the failure is not retried (a full disk
  /// stays full).
  bool enospc = false;
  /// > 0: this many commit *attempts* fail with a transient EIO before the
  /// next attempt succeeds (decremented per attempt, independent of
  /// `skip_commits`). Exercises the bounded retry + backoff path.
  int transient_failures = 0;
};

/// Installs / clears the global fault-injection seam (tests only).
void SetArtifactFaultInjectionForTest(const ArtifactFaultInjection& faults);
void ClearArtifactFaultInjectionForTest();

/// \brief Writes `contents` to `path` with atomic temp+fsync+rename
/// semantics (no header/checksum — used for interoperable text formats:
/// CSVs, schema files, workloads). A buffered front-end: the bytes are
/// staged through `AtomicFileWriter` and published by its commit barrier.
///
/// Transient failures at the barrier are retried up to `kMaxCommitAttempts`
/// times with exponential backoff (the staged bytes stay valid); every retry
/// bumps the `sam.artifact.retries_total` counter, and exhausting the budget
/// fails with an `IOError` naming the path. Hard failures (write errors,
/// ENOSPC, bad paths) are not retried and leave no staged temp file behind.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Retry budget for transient commit failures (total attempts, so N - 1
/// retries). Exposed for the fault-injection tests.
constexpr int kMaxCommitAttempts = 4;

/// \brief Streaming variant of `AtomicWriteFile` for outputs too large to
/// buffer under a memory cap (out-of-core CSV assembly).
///
/// Bytes are appended straight to `path + ".tmp"`; `Commit()` is the one
/// commit barrier every durable write reaches: the fault-injection seam, the
/// bounded transient retry, fsync → rename → fsync(dir), and the
/// `artifact/commit` span with the `sam.artifact.*` metrics. The target path
/// is all-or-nothing even though the payload never lives in RAM. Destroying
/// an uncommitted writer unlinks the temp file.
class AtomicFileWriter {
 public:
  static Result<AtomicFileWriter> Open(const std::string& path);

  AtomicFileWriter(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter& operator=(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;
  ~AtomicFileWriter();

  Status Append(const char* data, size_t len);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  uint64_t bytes_written() const { return bytes_written_; }

  /// Fsync + rename into place. After a successful Commit the writer is
  /// inert; a failed Commit cleans up the temp file.
  Status Commit();

 private:
  AtomicFileWriter() = default;

  void Abandon();
  /// The barrier proper (everything in `Commit` but the observation).
  Status CommitStaged();

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  uint64_t bytes_written_ = 0;
};

/// \brief Serialises one artifact payload and commits it atomically.
class ArtifactWriter {
 public:
  /// `kind` is an up-to-8-char ASCII tag (e.g. "MADEMODL"); `version` is the
  /// per-kind payload version readers use to gate compatibility.
  ArtifactWriter(std::string kind, uint32_t version);

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutBool(bool v);
  /// u64 length + raw bytes.
  void PutString(const std::string& s);
  /// u64 rows + u64 cols + row-major doubles.
  void PutMatrix(const Matrix& m);
  /// Raw bytes with no length prefix (bulk arrays whose size the caller
  /// serialises separately — spill chunk code/record runs).
  void PutBytes(const void* data, size_t len) { PutRaw(data, len); }

  size_t payload_size() const { return payload_.size(); }
  /// Total on-disk size after Commit (header + payload).
  size_t committed_size() const;

  /// Atomically publishes the artifact at `path`: stages the header, then
  /// the payload, through `AtomicFileWriter` (see file comment).
  Status Commit(const std::string& path) const;

 private:
  void PutRaw(const void* data, size_t len);

  std::string kind_;
  uint32_t version_;
  std::string payload_;
};

/// \brief Streaming counterpart of `ArtifactReader` for payloads too large
/// to buffer under a memory cap (out-of-core CSV assembly).
///
/// `Open` validates the header (magic, kind, container version, declared
/// payload length against the file size) without touching the payload;
/// `Read` then hands out payload bytes in caller-sized buffers while
/// chaining the CRC32 incrementally. `Finish` fails unless every payload
/// byte was consumed *and* the chained checksum matches the header, so a
/// caller that streams a chunk into a not-yet-committed output still sees
/// bit rot as a clean `IOError` before anything is published.
class StreamingArtifactReader {
 public:
  static Result<StreamingArtifactReader> Open(const std::string& path,
                                              const std::string& kind);

  StreamingArtifactReader(StreamingArtifactReader&& other) noexcept;
  StreamingArtifactReader& operator=(StreamingArtifactReader&& other) noexcept;
  StreamingArtifactReader(const StreamingArtifactReader&) = delete;
  StreamingArtifactReader& operator=(const StreamingArtifactReader&) = delete;
  ~StreamingArtifactReader();

  uint32_t version() const { return version_; }
  uint64_t payload_size() const { return payload_size_; }
  uint64_t remaining() const { return payload_size_ - consumed_; }

  /// Reads up to `cap` payload bytes into `buf`; returns the count actually
  /// read (0 once the payload is exhausted). A short file — the payload
  /// ending before the header-declared size — fails with `IOError`.
  Result<size_t> Read(char* buf, size_t cap);

  /// Fixed-width field reads through the same CRC-chained stream, for
  /// chunk preambles ahead of a bulk payload.
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();

  /// Verifies full consumption and the chained payload checksum.
  Status Finish() const;

 private:
  StreamingArtifactReader() = default;

  Status ReadExact(void* out, size_t len);
  void Close();

  std::string path_;
  int fd_ = -1;
  uint32_t version_ = 0;
  uint32_t expected_crc_ = 0;
  uint64_t payload_size_ = 0;
  uint64_t consumed_ = 0;
  uint32_t crc_ = 0;
};

/// \brief Validates and reads back an artifact written by `ArtifactWriter`.
///
/// `Open` performs all integrity checks up front — the header check of
/// `StreamingArtifactReader`, one read of the payload, then its CRC — and
/// the typed getters are bounds-checked against the declared payload, so a
/// corrupt length field can never cause an out-of-bounds read or a
/// partially-filled object.
class ArtifactReader {
 public:
  /// Opens `path`, expecting artifact kind `kind`. Fails with
  /// `InvalidArgument` on wrong magic/kind and `IOError` on truncation or
  /// checksum mismatch.
  static Result<ArtifactReader> Open(const std::string& path,
                                     const std::string& kind);

  uint32_t version() const { return version_; }
  size_t remaining() const { return payload_.size() - pos_; }

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<std::string> GetString();
  Result<Matrix> GetMatrix();
  /// Bounds-checked bulk read of `len` raw bytes (pairs with `PutBytes`).
  Status GetBytes(void* out, size_t len) { return GetRaw(out, len); }

  /// Fails unless every payload byte has been consumed (catches writer/
  /// reader schema drift and trailing garbage).
  Status ExpectEnd() const;

 private:
  ArtifactReader() = default;

  Status GetRaw(void* out, size_t len);

  uint32_t version_ = 0;
  std::string payload_;
  size_t pos_ = 0;
};

}  // namespace sam
