// Tests for the crash-safe artifact layer: format round-trips, corruption
// detection (truncation, bit rot, garbage), and the fault-injection seams
// that simulate crashes at every stage of the commit protocol.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "storage/artifact_io.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Clears the fault seam even when a test fails mid-way.
class ArtifactIoTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearArtifactFaultInjectionForTest(); }
};

TEST_F(ArtifactIoTest, RoundTripsEveryFieldType) {
  const std::string path = TempDir("sam_artifact_rt") + "/a.bin";
  Matrix m(2, 3);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) m(r, c) = 0.5 * static_cast<double>(r * 3 + c);

  ArtifactWriter w("TESTKIND", 7);
  w.PutU32(42);
  w.PutU64(1ull << 40);
  w.PutI64(-123456789);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutString(std::string("hello\0world", 11));  // Embedded NUL survives.
  w.PutMatrix(m);
  ASSERT_TRUE(w.Commit(path).ok());

  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ArtifactReader& reader = r.ValueOrDie();
  EXPECT_EQ(reader.version(), 7u);
  EXPECT_EQ(reader.GetU32().ValueOrDie(), 42u);
  EXPECT_EQ(reader.GetU64().ValueOrDie(), 1ull << 40);
  EXPECT_EQ(reader.GetI64().ValueOrDie(), -123456789);
  EXPECT_EQ(reader.GetDouble().ValueOrDie(), 3.25);
  EXPECT_EQ(reader.GetBool().ValueOrDie(), true);
  EXPECT_EQ(reader.GetString().ValueOrDie(), std::string("hello\0world", 11));
  const Matrix back = reader.GetMatrix().ValueOrDie();
  ASSERT_EQ(back.rows(), 2u);
  ASSERT_EQ(back.cols(), 3u);
  for (size_t r2 = 0; r2 < 2; ++r2)
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(back(r2, c), m(r2, c));
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST_F(ArtifactIoTest, StreamingReaderYieldsExactPayloadAndVerifiesCrc) {
  const std::string path = TempDir("sam_artifact_stream") + "/a.bin";
  std::string blob(4099, '\0');  // Deliberately not a buffer-size multiple.
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>('a' + i % 17);
  }
  ArtifactWriter w("TESTKIND", 3);
  w.PutU32(7);
  w.PutU64(blob.size());
  w.PutBytes(blob.data(), blob.size());
  ASSERT_TRUE(w.Commit(path).ok());

  auto opened = StreamingArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamingArtifactReader reader = std::move(opened.ValueOrDie());
  EXPECT_EQ(reader.version(), 3u);
  EXPECT_EQ(reader.payload_size(), 4u + 8u + blob.size());
  EXPECT_EQ(reader.ReadU32().ValueOrDie(), 7u);
  EXPECT_EQ(reader.ReadU64().ValueOrDie(), blob.size());
  std::string streamed;
  char buf[256];
  while (reader.remaining() > 0) {
    auto got = reader.Read(buf, sizeof(buf));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (got.ValueOrDie() == 0) break;
    streamed.append(buf, got.ValueOrDie());
  }
  EXPECT_EQ(streamed, blob);
  EXPECT_TRUE(reader.Finish().ok());
  // Reading past the end is a clean zero, not an error.
  EXPECT_EQ(reader.Read(buf, sizeof(buf)).ValueOrDie(), 0u);
}

TEST_F(ArtifactIoTest, StreamingReaderRejectsWrongKindAndTruncation) {
  const std::string dir = TempDir("sam_artifact_stream_bad");
  ArtifactWriter w("TESTKIND", 1);
  w.PutU64(99);
  ASSERT_TRUE(w.Commit(dir + "/a.bin").ok());
  EXPECT_FALSE(StreamingArtifactReader::Open(dir + "/a.bin", "OTHRKIND").ok());
  std::filesystem::copy_file(dir + "/a.bin", dir + "/t.bin");
  std::filesystem::resize_file(dir + "/t.bin",
                               std::filesystem::file_size(dir + "/t.bin") - 1);
  EXPECT_FALSE(StreamingArtifactReader::Open(dir + "/t.bin", "TESTKIND").ok());
}

TEST_F(ArtifactIoTest, RejectsWrongKindAndGarbage) {
  const std::string dir = TempDir("sam_artifact_kind");
  ArtifactWriter w("KINDONE", 1);
  w.PutU32(1);
  ASSERT_TRUE(w.Commit(dir + "/a.bin").ok());
  auto wrong = ArtifactReader::Open(dir + "/a.bin", "KINDTWO");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  {
    std::ofstream out(dir + "/garbage.bin", std::ios::binary);
    out << "this is definitely not an artifact file at all";
  }
  EXPECT_FALSE(ArtifactReader::Open(dir + "/garbage.bin", "KINDONE").ok());
  {
    std::ofstream out(dir + "/empty.bin", std::ios::binary);
  }
  EXPECT_FALSE(ArtifactReader::Open(dir + "/empty.bin", "KINDONE").ok());
  EXPECT_FALSE(ArtifactReader::Open(dir + "/missing.bin", "KINDONE").ok());
}

TEST_F(ArtifactIoTest, DetectsTruncationAtEveryLength) {
  const std::string dir = TempDir("sam_artifact_trunc");
  ArtifactWriter w("TESTKIND", 1);
  w.PutU64(0xdeadbeefULL);
  w.PutString("payload payload payload");
  ASSERT_TRUE(w.Commit(dir + "/full.bin").ok());
  const std::string full = ReadAll(dir + "/full.bin");
  ASSERT_GT(full.size(), 8u);

  // Every proper prefix must be rejected cleanly (header or CRC check).
  for (size_t len : {size_t{0}, size_t{5}, size_t{16}, full.size() / 2,
                     full.size() - 1}) {
    const std::string path = dir + "/trunc.bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    auto r = ArtifactReader::Open(path, "TESTKIND");
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes was accepted";
  }
}

TEST_F(ArtifactIoTest, DetectsSingleBitFlipAnywhere) {
  const std::string dir = TempDir("sam_artifact_flip");
  ArtifactWriter w("TESTKIND", 1);
  w.PutDouble(1.5);
  w.PutString("checksummed");
  ASSERT_TRUE(w.Commit(dir + "/a.bin").ok());
  const std::string full = ReadAll(dir + "/a.bin");

  for (size_t byte : {size_t{0}, size_t{12}, size_t{20}, full.size() - 1}) {
    std::string copy = full;
    copy[byte] = static_cast<char>(copy[byte] ^ 0x10);
    const std::string path = dir + "/flip.bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
    out.close();
    EXPECT_FALSE(ArtifactReader::Open(path, "TESTKIND").ok())
        << "bit flip at byte " << byte << " was accepted";
  }
}

TEST_F(ArtifactIoTest, ReadPastEndIsCleanError) {
  const std::string path = TempDir("sam_artifact_eof") + "/a.bin";
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(5);
  ASSERT_TRUE(w.Commit(path).ok());
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok());
  ArtifactReader& reader = r.ValueOrDie();
  EXPECT_TRUE(reader.GetU32().ok());
  EXPECT_FALSE(reader.GetU64().ok());    // Nothing left.
  EXPECT_FALSE(reader.GetMatrix().ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST_F(ArtifactIoTest, ExpectEndCatchesTrailingBytes) {
  const std::string path = TempDir("sam_artifact_trail") + "/a.bin";
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(5);
  w.PutU32(6);  // Reader below "forgets" to consume this.
  ASSERT_TRUE(w.Commit(path).ok());
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().GetU32().ok());
  EXPECT_FALSE(r.ValueOrDie().ExpectEnd().ok());
}

TEST_F(ArtifactIoTest, RejectsOversizedMatrixHeaderWithoutAllocating) {
  // A corrupt dims field must not trigger a huge allocation or OOB read: the
  // payload declares a matrix far larger than the remaining bytes.
  const std::string path = TempDir("sam_artifact_dims") + "/a.bin";
  ArtifactWriter w("TESTKIND", 1);
  w.PutU64(1ull << 60);  // rows
  w.PutU64(1ull << 60);  // cols
  ASSERT_TRUE(w.Commit(path).ok());
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.ValueOrDie().GetMatrix().ok());
}

TEST_F(ArtifactIoTest, AtomicWriteFileReplacesAndNeverTears) {
  const std::string dir = TempDir("sam_atomic_write");
  const std::string path = dir + "/f.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadAll(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second, longer contents").ok());
  EXPECT_EQ(ReadAll(path), "second, longer contents");
  // No temp files linger after successful commits.
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

// ---- Fault injection: each failure mode must leave either the previous
// file intact or a detectably-corrupt file — never silent corruption. -------

TEST_F(ArtifactIoTest, FaultMidWriteLeavesPreviousFileIntact) {
  const std::string path = TempDir("sam_fault_write") + "/a.bin";
  ArtifactWriter w("TESTKIND", 1);
  w.PutString("generation one");
  ASSERT_TRUE(w.Commit(path).ok());
  const std::string before = ReadAll(path);

  ArtifactFaultInjection f;
  f.fail_write_at_byte = 10;  // Crash 10 bytes into the temp file.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w2("TESTKIND", 1);
  w2.PutString("generation two, which never lands");
  const Status st = w2.Commit(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  ClearArtifactFaultInjectionForTest();

  // Target untouched; the torn temp file is ignored by readers.
  EXPECT_EQ(ReadAll(path), before);
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().GetString().ValueOrDie(), "generation one");
}

TEST_F(ArtifactIoTest, FaultTruncateOnCloseIsDetectedAtRead) {
  const std::string path = TempDir("sam_fault_trunc") + "/a.bin";
  ArtifactFaultInjection f;
  f.truncate_on_close = true;  // Lying close: write "succeeds", file is torn.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutString("this artifact will be silently cut in half");
  ASSERT_TRUE(w.Commit(path).ok());  // The writer believes it succeeded.
  ClearArtifactFaultInjectionForTest();

  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(ArtifactIoTest, FaultTornRenameLeavesTargetAbsent) {
  const std::string dir = TempDir("sam_fault_rename");
  const std::string path = dir + "/a.bin";
  ArtifactFaultInjection f;
  f.torn_rename = true;  // Crash after fsync, before rename.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(1);
  const Status st = w.Commit(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  ClearArtifactFaultInjectionForTest();

  EXPECT_FALSE(std::filesystem::exists(path));
  // The complete temp file is left behind, exactly as a crash would.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ArtifactIoTest, FaultBitFlipAfterCommitIsDetectedAtRead) {
  const std::string path = TempDir("sam_fault_flip") + "/a.bin";
  ArtifactFaultInjection f;
  f.bit_flip_at_byte = 33;  // Bit rot lands after a fully successful commit.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutString("pristine bytes");
  ASSERT_TRUE(w.Commit(path).ok());
  ClearArtifactFaultInjectionForTest();

  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(ArtifactIoTest, SkipCommitsDelaysTheFault) {
  const std::string dir = TempDir("sam_fault_skip");
  ArtifactFaultInjection f;
  f.skip_commits = 1;
  f.torn_rename = true;
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(7);
  EXPECT_TRUE(w.Commit(dir + "/first.bin").ok());    // Survives.
  EXPECT_FALSE(w.Commit(dir + "/second.bin").ok());  // Fault fires here.
  ClearArtifactFaultInjectionForTest();
  EXPECT_TRUE(std::filesystem::exists(dir + "/first.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/second.bin"));
}

TEST_F(ArtifactIoTest, TransientFailuresAreRetriedToSuccess) {
  obs::EnableMetrics(true);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.retries_total");
  const uint64_t before = retries->Value();

  const std::string path = TempDir("sam_fault_transient") + "/a.bin";
  ArtifactFaultInjection f;
  f.transient_failures = 2;  // Two EIO hiccups, then the device recovers.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutString("lands on the third attempt");
  EXPECT_TRUE(w.Commit(path).ok());
  ClearArtifactFaultInjectionForTest();
  obs::EnableMetrics(false);

  EXPECT_EQ(retries->Value(), before + 2);
  auto r = ArtifactReader::Open(path, "TESTKIND");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().GetString().ValueOrDie(),
            "lands on the third attempt");
}

TEST_F(ArtifactIoTest, PersistentTransientFailuresExhaustTheRetryBudget) {
  const std::string path = TempDir("sam_fault_persist") + "/a.bin";
  ArtifactFaultInjection f;
  f.transient_failures = kMaxCommitAttempts;  // Never recovers in budget.
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(1);
  const Status st = w.Commit(path);
  ClearArtifactFaultInjectionForTest();

  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // The hard failure names the path and the exhausted attempt budget.
  EXPECT_NE(st.ToString().find(path), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find(std::to_string(kMaxCommitAttempts)),
            std::string::npos)
      << st.ToString();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ArtifactIoTest, EnospcIsNotRetriedAndCleansTheTempFile) {
  const std::string dir = TempDir("sam_fault_enospc");
  const std::string path = dir + "/a.bin";
  ArtifactFaultInjection f;
  f.enospc = true;
  SetArtifactFaultInjectionForTest(f);
  ArtifactWriter w("TESTKIND", 1);
  w.PutU32(1);
  const Status st = w.Commit(path);
  ClearArtifactFaultInjectionForTest();

  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("No space left"), std::string::npos)
      << st.ToString();
  // Deterministic error, not a crash: both target and staging are clean.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ArtifactIoTest, AtomicFileWriterStreamsAndCommits) {
  const std::string path = TempDir("sam_afw_rt") + "/t.csv";
  auto w = AtomicFileWriter::Open(path);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w.ValueOrDie().Append("header\n").ok());
  ASSERT_TRUE(w.ValueOrDie().Append("row\n").ok());
  EXPECT_EQ(w.ValueOrDie().bytes_written(), 11u);
  // Nothing is visible at the target until Commit.
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(w.ValueOrDie().Commit().ok());
  EXPECT_EQ(ReadAll(path), "header\nrow\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ArtifactIoTest, AtomicFileWriterDestructorDiscardsUncommitted) {
  const std::string path = TempDir("sam_afw_drop") + "/t.csv";
  {
    auto w = AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w.ValueOrDie().Append("doomed\n").ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ArtifactIoTest, AtomicFileWriterFaultSweep) {
  const std::string dir = TempDir("sam_afw_fault");

  {
    // Crash mid-write: truncated temp stays, target never appears.
    ArtifactFaultInjection f;
    f.fail_write_at_byte = 3;
    SetArtifactFaultInjectionForTest(f);
    auto w = AtomicFileWriter::Open(dir + "/a.csv");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().Append("0123456789").ok());
    EXPECT_FALSE(w.ValueOrDie().Commit().ok());
    ClearArtifactFaultInjectionForTest();
    EXPECT_FALSE(std::filesystem::exists(dir + "/a.csv"));
  }
  {
    // Crash between fsync and rename.
    ArtifactFaultInjection f;
    f.torn_rename = true;
    SetArtifactFaultInjectionForTest(f);
    auto w = AtomicFileWriter::Open(dir + "/b.csv");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().Append("x").ok());
    EXPECT_FALSE(w.ValueOrDie().Commit().ok());
    ClearArtifactFaultInjectionForTest();
    EXPECT_FALSE(std::filesystem::exists(dir + "/b.csv"));
  }
  {
    // Full disk at the commit barrier: clean error, staging removed.
    ArtifactFaultInjection f;
    f.enospc = true;
    SetArtifactFaultInjectionForTest(f);
    auto w = AtomicFileWriter::Open(dir + "/c.csv");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().Append("x").ok());
    const Status st = w.ValueOrDie().Commit();
    ClearArtifactFaultInjectionForTest();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_FALSE(std::filesystem::exists(dir + "/c.csv"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/c.csv.tmp"));
  }
  {
    // Transient hiccups at the barrier are absorbed by the retry loop.
    ArtifactFaultInjection f;
    f.transient_failures = 2;
    SetArtifactFaultInjectionForTest(f);
    auto w = AtomicFileWriter::Open(dir + "/d.csv");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().Append("survives\n").ok());
    EXPECT_TRUE(w.ValueOrDie().Commit().ok());
    ClearArtifactFaultInjectionForTest();
    EXPECT_EQ(ReadAll(dir + "/d.csv"), "survives\n");
  }

  // The remaining modes stream a complete SAMA artifact, so the reader can
  // show that a corrupt streamed commit is detected exactly like a buffered
  // one.
  ArtifactWriter aw("TESTKIND", 1);
  aw.PutString("streamed through the one commit barrier");
  ASSERT_TRUE(aw.Commit(dir + "/source.bin").ok());
  const std::string artifact = ReadAll(dir + "/source.bin");
  auto stream = [&](const std::string& name) {
    auto w = AtomicFileWriter::Open(dir + "/" + name);
    EXPECT_TRUE(w.ok());
    EXPECT_TRUE(w.ValueOrDie().Append(artifact).ok());
    return w.ValueOrDie().Commit();
  };
  {
    // Lying close: the commit reports success, the reader sees truncation.
    ArtifactFaultInjection f;
    f.truncate_on_close = true;
    SetArtifactFaultInjectionForTest(f);
    EXPECT_TRUE(stream("e.bin").ok());
    ClearArtifactFaultInjectionForTest();
    auto r = ArtifactReader::Open(dir + "/e.bin", "TESTKIND");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
  {
    // Bit rot after a successful streamed commit fails the CRC at read.
    ArtifactFaultInjection f;
    f.bit_flip_at_byte = 40;
    SetArtifactFaultInjectionForTest(f);
    EXPECT_TRUE(stream("f.bin").ok());
    ClearArtifactFaultInjectionForTest();
    auto r = ArtifactReader::Open(dir + "/f.bin", "TESTKIND");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
  {
    // skip_commits counts streamed commits: the first lands intact, the
    // fault fires on the second.
    ArtifactFaultInjection f;
    f.skip_commits = 1;
    f.torn_rename = true;
    SetArtifactFaultInjectionForTest(f);
    EXPECT_TRUE(stream("g.bin").ok());
    EXPECT_FALSE(stream("h.bin").ok());
    ClearArtifactFaultInjectionForTest();
    EXPECT_TRUE(ArtifactReader::Open(dir + "/g.bin", "TESTKIND").ok());
    EXPECT_FALSE(std::filesystem::exists(dir + "/h.bin"));
  }
  {
    // An exhausted transient budget fails naming the path and the budget,
    // and leaves neither target nor staging behind.
    ArtifactFaultInjection f;
    f.transient_failures = kMaxCommitAttempts;
    SetArtifactFaultInjectionForTest(f);
    const Status st = stream("i.bin");
    ClearArtifactFaultInjectionForTest();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_NE(st.ToString().find(dir + "/i.bin"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find(std::to_string(kMaxCommitAttempts)),
              std::string::npos)
        << st.ToString();
    EXPECT_FALSE(std::filesystem::exists(dir + "/i.bin"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/i.bin.tmp"));
  }
}

TEST_F(ArtifactIoTest, StreamedCommitIsCountedLikeBufferedOnes) {
  obs::EnableMetrics(true);
  obs::Counter* commits =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.commits");
  obs::Counter* bytes =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.bytes");
  const uint64_t commits_before = commits->Value();
  const uint64_t bytes_before = bytes->Value();

  auto w = AtomicFileWriter::Open(TempDir("sam_afw_metrics") + "/t.csv");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w.ValueOrDie().Append("header\nrow\n").ok());
  const Status st = w.ValueOrDie().Commit();
  obs::EnableMetrics(false);

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(commits->Value(), commits_before + 1);
  EXPECT_EQ(bytes->Value(), bytes_before + 11);
}

TEST_F(ArtifactIoTest, Crc32MatchesKnownVector) {
  // zlib's crc32("123456789") — guards against accidental polynomial edits.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // Chained blocks equal one-shot.
  EXPECT_EQ(Crc32(s + 4, 5, Crc32(s, 4)), 0xcbf43926u);
}

/// One table lookup per byte: the definition `Crc32`'s sliced loop must
/// reproduce bit for bit.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST_F(ArtifactIoTest, Crc32MatchesBytewiseReference) {
  std::vector<unsigned char> buf(1024 + 16);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  for (size_t start = 0; start < 8; ++start) {  // Every alignment mod 8.
    const unsigned char* p = buf.data() + start;
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "start=" << start << " len=" << len;
    }
    // Chained seeds: any split of a block gives the one-shot value.
    const uint32_t whole = BytewiseCrc32(p, 1024, 0);
    for (size_t cut = 0; cut <= 1024; cut += 37) {
      ASSERT_EQ(Crc32(p + cut, 1024 - cut, Crc32(p, cut)), whole)
          << "start=" << start << " cut=" << cut;
    }
    const uint32_t seed = 0x9e3779b9u;
    ASSERT_EQ(Crc32(p, 999, seed), BytewiseCrc32(p, 999, seed));
  }
}

}  // namespace
}  // namespace sam
