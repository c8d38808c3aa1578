#include "storage/artifact_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace sam {

namespace {

constexpr uint32_t kArtifactMagic = 0x414d4153;  // "SAMA" little-endian.
constexpr uint32_t kContainerVersion = 1;
constexpr size_t kKindBytes = 8;
constexpr size_t kHeaderBytes = 4 + 4 + kKindBytes + 4 + 4 + 8;

/// Slicing-by-8 tables: `t[0]` is the bytewise table of the reflected
/// polynomial, and `t[j][b]` is the CRC of byte b followed by j zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t j = 1; j < t.size(); ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
    }
  }
  return t;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

ArtifactFaultInjection g_faults;
bool g_faults_active = false;

/// Resolves whether the fault seam fires for this commit (and consumes one
/// `skip_commits` credit when armed but not yet due).
bool FaultFires() {
  if (!g_faults_active) return false;
  if (g_faults.skip_commits > 0) {
    --g_faults.skip_commits;
    return false;
  }
  return true;
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Errors are ignored: on filesystems that reject
/// directory fsync the rename is still atomic, just not yet durable.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

void FlipBitInFile(const std::string& path, long long byte_offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size > 0) {
    const off_t off = static_cast<off_t>(byte_offset % size);
    char b = 0;
    if (::pread(fd, &b, 1, off) == 1) {
      b ^= 0x10;
      ::pwrite(fd, &b, 1, off);
      ::fsync(fd);
    }
  }
  ::close(fd);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const CrcTables t = BuildCrcTables();
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  // Eight bytes per step: the running CRC folds into the first four, and
  // each byte's contribution is looked up with the zeros that follow it.
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void SetArtifactFaultInjectionForTest(const ArtifactFaultInjection& faults) {
  g_faults = faults;
  g_faults_active = true;
}

void ClearArtifactFaultInjectionForTest() {
  g_faults = ArtifactFaultInjection();
  g_faults_active = false;
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  SAM_ASSIGN_OR_RETURN(AtomicFileWriter w, AtomicFileWriter::Open(path));
  SAM_RETURN_NOT_OK(w.Append(contents));
  return w.Commit();
}

Result<AtomicFileWriter> AtomicFileWriter::Open(const std::string& path) {
  AtomicFileWriter w;
  w.path_ = path;
  w.tmp_ = path + ".tmp";
  w.fd_ = ::open(w.tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (w.fd_ < 0) {
    return Status::IOError("cannot open '" + w.tmp_ + "' for writing: " +
                           std::strerror(errno));
  }
  return w;
}

AtomicFileWriter::AtomicFileWriter(AtomicFileWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      fd_(other.fd_),
      bytes_written_(other.bytes_written_) {
  other.fd_ = -1;
  other.tmp_.clear();
}

AtomicFileWriter& AtomicFileWriter::operator=(AtomicFileWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    path_ = std::move(other.path_);
    tmp_ = std::move(other.tmp_);
    fd_ = other.fd_;
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
    other.tmp_.clear();
  }
  return *this;
}

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

void AtomicFileWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!tmp_.empty()) ::unlink(tmp_.c_str());
  }
}

Status AtomicFileWriter::Append(const char* data, size_t len) {
  if (fd_ < 0) {
    return Status::Internal("AtomicFileWriter for '" + path_ +
                            "' is closed (committed or moved from)");
  }
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd_, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IOError("write failed for '" + tmp_ + "': " +
                                        std::strerror(errno));
      Abandon();  // Reported error: no staged temp file left behind.
      return st;
    }
    done += static_cast<size_t>(n);
  }
  bytes_written_ += len;
  return Status::OK();
}

// The one commit barrier: the buffered front-ends (AtomicWriteFile,
// ArtifactWriter::Commit) stage through this writer too, so every durable
// file shares one protocol, one fault seam and one set of commit metrics.
// The trace/metrics writers themselves land here, after their snapshots are
// taken, so instrumenting the commit never feeds back into the output.
Status AtomicFileWriter::Commit() {
  if (fd_ < 0) {
    return Status::Internal("AtomicFileWriter for '" + path_ +
                            "' is closed (committed or moved from)");
  }
  obs::TraceSpan span("artifact/commit");
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = CommitStaged();
  if (obs::MetricsEnabled()) {
    static obs::Counter* commits =
        obs::MetricsRegistry::Global().GetCounter("sam.artifact.commits");
    static obs::Counter* bytes =
        obs::MetricsRegistry::Global().GetCounter("sam.artifact.bytes");
    static obs::Histogram* seconds =
        obs::MetricsRegistry::Global().GetHistogram(
            "sam.artifact.commit_seconds");
    seconds->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    commits->Add(1);
    bytes->Add(bytes_written_);
  }
  return st;
}

Status AtomicFileWriter::CommitStaged() {
  // Transient hiccups are consumed per *attempt*, before the per-commit
  // crash-fault accounting, so `skip_commits` keeps counting commits rather
  // than attempts. The staged bytes stay valid across attempts, so a retry
  // only backs off and tries the barrier again.
  static obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.retries_total");
  for (int attempt = 1; g_faults_active && g_faults.transient_failures > 0;
       ++attempt) {
    --g_faults.transient_failures;
    const Status st = Status::IOError(
        "injected fault: transient I/O error (EIO) committing '" + path_ + "'");
    if (attempt == kMaxCommitAttempts) {
      Abandon();
      return Status::IOError("commit of '" + path_ + "' failed after " +
                             std::to_string(kMaxCommitAttempts) +
                             " attempts (transient errors persisted): " +
                             st.ToString());
    }
    retries->Add(1);
    const auto backoff = std::chrono::milliseconds(5LL << (attempt - 1));
    SAM_LOG(Warn) << "transient write failure for '" << path_ << "' (attempt "
                  << attempt << "/" << kMaxCommitAttempts << "), retrying in "
                  << backoff.count() << "ms: " << st.ToString();
    std::this_thread::sleep_for(backoff);
  }

  // Injected crash modes leave the filesystem exactly as the simulated crash
  // would (see ArtifactFaultInjection); reported errors clean up the staged
  // temp file.
  const bool faulty = FaultFires();
  if (faulty && g_faults.enospc) {
    // A full disk is a *reported* write error, not a crash: the caller sees a
    // clean, non-retryable IOError and no staged file is left behind.
    Abandon();
    return Status::IOError("write failed for '" + tmp_ +
                           "': " + std::strerror(ENOSPC) +
                           " (injected ENOSPC)");
  }
  if (faulty && g_faults.fail_write_at_byte >= 0 &&
      static_cast<unsigned long long>(g_faults.fail_write_at_byte) <
          bytes_written_) {
    // Simulated crash mid-write: the torn temp file stays on disk and the
    // target path is untouched.
    ::ftruncate(fd_, static_cast<off_t>(g_faults.fail_write_at_byte));
    ::close(fd_);
    fd_ = -1;
    const std::string torn = tmp_;
    tmp_.clear();
    return Status::IOError("injected fault: crash after writing " +
                           std::to_string(g_faults.fail_write_at_byte) +
                           " of " + std::to_string(bytes_written_) +
                           " bytes to '" + torn + "'");
  }
  if (faulty && g_faults.truncate_on_close) {
    // Lying close: half the bytes reach disk but the commit reports success.
    ::ftruncate(fd_, static_cast<off_t>(bytes_written_ / 2));
  }
  if (::fsync(fd_) != 0) {
    const Status st = Status::IOError("fsync failed for '" + tmp_ + "': " +
                                      std::strerror(errno));
    Abandon();
    return st;
  }
  ::close(fd_);
  fd_ = -1;
  const std::string staged = tmp_;
  tmp_.clear();
  if (faulty && g_faults.torn_rename) {
    // Simulated crash between fsync and rename: complete temp file, target
    // path untouched.
    return Status::IOError("injected fault: crash before renaming '" + staged +
                           "' over '" + path_ + "'");
  }
  if (::rename(staged.c_str(), path_.c_str()) != 0) {
    const Status st = Status::IOError("rename '" + staged + "' -> '" + path_ +
                                      "' failed: " + std::strerror(errno));
    ::unlink(staged.c_str());
    return st;
  }
  FsyncParentDir(path_);
  if (faulty && g_faults.bit_flip_at_byte >= 0) {
    // Post-commit bit rot: the commit itself reports success.
    FlipBitInFile(path_, g_faults.bit_flip_at_byte);
  }
  return Status::OK();
}

ArtifactWriter::ArtifactWriter(std::string kind, uint32_t version)
    : kind_(std::move(kind)), version_(version) {
  kind_.resize(kKindBytes, '\0');
}

void ArtifactWriter::PutRaw(const void* data, size_t len) {
  payload_.append(static_cast<const char*>(data), len);
}

void ArtifactWriter::PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
void ArtifactWriter::PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
void ArtifactWriter::PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
void ArtifactWriter::PutDouble(double v) { PutRaw(&v, sizeof(v)); }

void ArtifactWriter::PutBool(bool v) {
  const unsigned char b = v ? 1 : 0;
  PutRaw(&b, 1);
}

void ArtifactWriter::PutString(const std::string& s) {
  PutU64(s.size());
  PutRaw(s.data(), s.size());
}

void ArtifactWriter::PutMatrix(const Matrix& m) {
  PutU64(m.rows());
  PutU64(m.cols());
  PutRaw(m.data(), m.size() * sizeof(double));
}

size_t ArtifactWriter::committed_size() const {
  return kHeaderBytes + payload_.size();
}

Status ArtifactWriter::Commit(const std::string& path) const {
  std::string header;
  header.reserve(kHeaderBytes);
  auto append = [&header](const void* data, size_t len) {
    header.append(static_cast<const char*>(data), len);
  };
  append(&kArtifactMagic, 4);
  const uint32_t container = kContainerVersion;
  append(&container, 4);
  append(kind_.data(), kKindBytes);
  append(&version_, 4);
  const uint32_t crc = Crc32(payload_.data(), payload_.size());
  append(&crc, 4);
  const uint64_t size = payload_.size();
  append(&size, 8);
  SAM_ASSIGN_OR_RETURN(AtomicFileWriter w, AtomicFileWriter::Open(path));
  SAM_RETURN_NOT_OK(w.Append(header));
  SAM_RETURN_NOT_OK(w.Append(payload_));
  return w.Commit();
}

Result<StreamingArtifactReader> StreamingArtifactReader::Open(
    const std::string& path, const std::string& kind) {
  StreamingArtifactReader r;
  r.path_ = path;
  r.fd_ = ::open(path.c_str(), O_RDONLY);
  if (r.fd_ < 0) {
    return Status::IOError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  char header[kHeaderBytes];
  size_t got = 0;
  while (got < kHeaderBytes) {
    const ssize_t n = ::read(r.fd_, header + got, kHeaderBytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed for '" + path + "': " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("artifact '" + path + "' truncated: " +
                             std::to_string(got) +
                             " bytes is smaller than the header");
    }
    got += static_cast<size_t>(n);
  }
  size_t off = 0;
  auto read32 = [&]() {
    uint32_t v;
    std::memcpy(&v, header + off, 4);
    off += 4;
    return v;
  };
  if (read32() != kArtifactMagic) {
    return Status::InvalidArgument("'" + path + "' is not a SAM artifact");
  }
  const uint32_t container = read32();
  if (container != kContainerVersion) {
    return Status::InvalidArgument("artifact '" + path +
                                   "' has unsupported container version " +
                                   std::to_string(container));
  }
  std::string file_kind(header + off, kKindBytes);
  off += kKindBytes;
  std::string want_kind = kind;
  want_kind.resize(kKindBytes, '\0');
  if (file_kind != want_kind) {
    return Status::InvalidArgument(
        "artifact '" + path + "' has kind '" +
        file_kind.substr(0, file_kind.find('\0')) + "', expected '" + kind +
        "'");
  }
  r.version_ = read32();
  r.expected_crc_ = read32();
  std::memcpy(&r.payload_size_, header + off, 8);
  const off_t file_size = ::lseek(r.fd_, 0, SEEK_END);
  if (file_size < 0 ||
      ::lseek(r.fd_, static_cast<off_t>(kHeaderBytes), SEEK_SET) < 0) {
    return Status::IOError("seek failed for '" + path + "': " +
                           std::strerror(errno));
  }
  const uint64_t on_disk = static_cast<uint64_t>(file_size) - kHeaderBytes;
  if (r.payload_size_ != on_disk) {
    return Status::IOError("artifact '" + path + "' corrupt: header declares " +
                           std::to_string(r.payload_size_) +
                           " payload bytes, file has " +
                           std::to_string(on_disk));
  }
  return r;
}

StreamingArtifactReader::StreamingArtifactReader(
    StreamingArtifactReader&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      version_(other.version_),
      expected_crc_(other.expected_crc_),
      payload_size_(other.payload_size_),
      consumed_(other.consumed_),
      crc_(other.crc_) {
  other.fd_ = -1;
}

StreamingArtifactReader& StreamingArtifactReader::operator=(
    StreamingArtifactReader&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    version_ = other.version_;
    expected_crc_ = other.expected_crc_;
    payload_size_ = other.payload_size_;
    consumed_ = other.consumed_;
    crc_ = other.crc_;
    other.fd_ = -1;
  }
  return *this;
}

StreamingArtifactReader::~StreamingArtifactReader() { Close(); }

void StreamingArtifactReader::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<size_t> StreamingArtifactReader::Read(char* buf, size_t cap) {
  if (fd_ < 0) {
    return Status::Internal("StreamingArtifactReader for '" + path_ +
                            "' is closed (moved from)");
  }
  const uint64_t left = payload_size_ - consumed_;
  if (left == 0 || cap == 0) return static_cast<size_t>(0);
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(left, static_cast<uint64_t>(cap)));
  size_t got = 0;
  while (got < want) {
    const ssize_t n = ::read(fd_, buf + got, want - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed for '" + path_ + "': " +
                             std::strerror(errno));
    }
    if (n == 0) {
      // The size was validated at Open, so a short read means the file
      // shrank underneath us.
      return Status::IOError("artifact '" + path_ +
                             "' truncated while streaming: expected " +
                             std::to_string(payload_size_) +
                             " payload bytes, got " +
                             std::to_string(consumed_ + got));
    }
    got += static_cast<size_t>(n);
  }
  crc_ = Crc32(buf, got, crc_);
  consumed_ += got;
  return got;
}

Status StreamingArtifactReader::ReadExact(void* out, size_t len) {
  if (len > payload_size_ - consumed_) {
    return Status::OutOfRange("artifact read of " + std::to_string(len) +
                              " bytes overruns payload (" +
                              std::to_string(payload_size_ - consumed_) +
                              " bytes left)");
  }
  size_t got = 0;
  while (got < len) {
    SAM_ASSIGN_OR_RETURN(
        const size_t n, Read(static_cast<char*>(out) + got, len - got));
    got += n;
  }
  return Status::OK();
}

Result<uint32_t> StreamingArtifactReader::ReadU32() {
  uint32_t v;
  SAM_RETURN_NOT_OK(ReadExact(&v, sizeof(v)));
  return v;
}

Result<uint64_t> StreamingArtifactReader::ReadU64() {
  uint64_t v;
  SAM_RETURN_NOT_OK(ReadExact(&v, sizeof(v)));
  return v;
}

Status StreamingArtifactReader::Finish() const {
  if (consumed_ != payload_size_) {
    return Status::IOError("artifact '" + path_ + "' has " +
                           std::to_string(payload_size_ - consumed_) +
                           " unread trailing bytes");
  }
  if (crc_ != expected_crc_) {
    return Status::IOError("artifact '" + path_ +
                           "' corrupt: payload checksum mismatch");
  }
  return Status::OK();
}

Result<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                            const std::string& kind) {
  // The streaming reader owns the one header check; the payload then lands
  // in a buffer sized from the validated header, and Finish() checks the CRC.
  SAM_ASSIGN_OR_RETURN(StreamingArtifactReader in,
                       StreamingArtifactReader::Open(path, kind));
  ArtifactReader reader;
  reader.version_ = in.version();
  reader.payload_.resize(in.payload_size());
  SAM_RETURN_NOT_OK(
      in.Read(reader.payload_.data(), reader.payload_.size()).status());
  SAM_RETURN_NOT_OK(in.Finish());
  return reader;
}

Status ArtifactReader::GetRaw(void* out, size_t len) {
  if (len > payload_.size() - pos_) {
    return Status::OutOfRange("artifact read of " + std::to_string(len) +
                              " bytes overruns payload (" +
                              std::to_string(payload_.size() - pos_) +
                              " bytes left)");
  }
  std::memcpy(out, payload_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Result<uint32_t> ArtifactReader::GetU32() {
  uint32_t v;
  SAM_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<uint64_t> ArtifactReader::GetU64() {
  uint64_t v;
  SAM_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<int64_t> ArtifactReader::GetI64() {
  int64_t v;
  SAM_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<double> ArtifactReader::GetDouble() {
  double v;
  SAM_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<bool> ArtifactReader::GetBool() {
  unsigned char b;
  SAM_RETURN_NOT_OK(GetRaw(&b, 1));
  if (b > 1) return Status::IOError("artifact bool field has value " +
                                    std::to_string(b));
  return b == 1;
}

Result<std::string> ArtifactReader::GetString() {
  SAM_ASSIGN_OR_RETURN(const uint64_t len, GetU64());
  if (len > payload_.size() - pos_) {
    return Status::OutOfRange("artifact string of " + std::to_string(len) +
                              " bytes overruns payload");
  }
  std::string s = payload_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<Matrix> ArtifactReader::GetMatrix() {
  SAM_ASSIGN_OR_RETURN(const uint64_t rows, GetU64());
  SAM_ASSIGN_OR_RETURN(const uint64_t cols, GetU64());
  // Validate the byte count before allocating or copying anything, so a
  // corrupt dimension can neither over-allocate nor partially fill. The
  // per-dimension bounds make the product overflow-safe.
  const uint64_t left = payload_.size() - pos_;
  if (rows > left || cols > left ||
      (rows != 0 && cols != 0 && rows * cols > left / sizeof(double))) {
    return Status::OutOfRange("artifact matrix " + std::to_string(rows) + "x" +
                              std::to_string(cols) + " overruns payload");
  }
  Matrix m(rows, cols);
  SAM_RETURN_NOT_OK(GetRaw(m.data(), m.size() * sizeof(double)));
  return m;
}

Status ArtifactReader::ExpectEnd() const {
  if (pos_ != payload_.size()) {
    return Status::IOError("artifact has " +
                           std::to_string(payload_.size() - pos_) +
                           " unread trailing bytes");
  }
  return Status::OK();
}

}  // namespace sam
