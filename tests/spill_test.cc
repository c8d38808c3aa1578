// Tests for the out-of-core spill layer: memory-budget accounting, chunk
// round-trips through the checksummed artifact format, type-tag confusion,
// corruption detection, and manifest verification.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "storage/artifact_io.h"
#include "storage/spill.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(MemoryBudgetTest, TracksReservedAndPeak) {
  MemoryBudget b(1000);
  EXPECT_TRUE(b.Reserve(400, "a").ok());
  EXPECT_TRUE(b.Reserve(500, "b").ok());
  EXPECT_EQ(b.reserved(), 900);
  EXPECT_EQ(b.peak(), 900);
  b.Release(500);
  EXPECT_EQ(b.reserved(), 400);
  EXPECT_EQ(b.peak(), 900);  // Peak is a high-water mark.
  EXPECT_TRUE(b.CheckFits(600, "c").ok());
  EXPECT_FALSE(b.CheckFits(601, "c").ok());
  EXPECT_FALSE(b.CheckFits(INT64_MAX, "c").ok());  // No overflow.
  EXPECT_EQ(b.reserved(), 400);  // Checking reserves nothing.
}

TEST(MemoryBudgetTest, OverCapFailsCleanlyNamingTheStructure) {
  MemoryBudget b(100);
  ASSERT_TRUE(b.Reserve(80, "resident columns").ok());
  const Status st = b.Reserve(21, "weight array");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("memory cap exceeded"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("weight array"), std::string::npos);
  EXPECT_NE(st.ToString().find("--memory-cap"), std::string::npos);
  // The failed reservation must not leak into the accounting.
  EXPECT_EQ(b.reserved(), 80);
}

TEST(MemoryBudgetTest, NonPositiveCapDisablesEnforcement) {
  MemoryBudget b(0);
  EXPECT_TRUE(b.Reserve(1ll << 40, "huge").ok());
  EXPECT_EQ(b.peak(), 1ll << 40);  // Accounting still runs.
}

TEST(MemoryBudgetTest, ScopedReservationReleasesOnExit) {
  MemoryBudget b(1000);
  {
    ScopedReservation res(&b);
    ASSERT_TRUE(res.Acquire(300, "x").ok());
    ASSERT_TRUE(res.Acquire(200, "y").ok());
    EXPECT_EQ(b.reserved(), 500);
    EXPECT_EQ(res.held(), 500);
  }
  EXPECT_EQ(b.reserved(), 0);
  EXPECT_EQ(b.peak(), 500);
}

TEST(SpillChunkTest, FojChunkRoundTrips) {
  const std::string path = TempDir("sam_spill_foj") + "/c.spill";
  FojChunk c;
  c.batch_index = 7;
  c.rows = 3;
  c.codes = {{1, 2, 3}, {4, 5, 6}};
  ASSERT_TRUE(c.Save(path).ok());
  auto back = FojChunk::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().batch_index, 7u);
  EXPECT_EQ(back.ValueOrDie().rows, 3u);
  EXPECT_EQ(back.ValueOrDie().codes, c.codes);
}

TEST(SpillChunkTest, VirtualChunkRoundTrips) {
  const std::string path = TempDir("sam_spill_virt") + "/c.spill";
  VirtualChunk c;
  c.records = {{3, 0.25, -1}, {9, 1.0, 42}};
  ASSERT_TRUE(c.Save(path).ok());
  auto back = VirtualChunk::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(back.ValueOrDie().records[0].sample, 3u);
  EXPECT_EQ(back.ValueOrDie().records[0].fraction, 0.25);
  EXPECT_EQ(back.ValueOrDie().records[1].fk_value, 42);
}

TEST(SpillChunkTest, RowChunkRoundTrips) {
  const std::string path = TempDir("sam_spill_row") + "/c.spill";
  RowChunk c;
  c.rows = 2;
  c.csv = "1,a\n2,b\n";
  ASSERT_TRUE(c.Save(path).ok());
  auto back = RowChunk::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().rows, 2u);
  EXPECT_EQ(back.ValueOrDie().csv, c.csv);
}

TEST(SpillChunkTest, RowChunkReaderStreamsIdenticalBytes) {
  const std::string path = TempDir("sam_spill_rowstream") + "/c.spill";
  RowChunk c;
  c.rows = 100;
  for (int i = 0; i < 100; ++i) {
    c.csv += std::to_string(i) + ",row-" + std::to_string(i * 7) + "\n";
  }
  ASSERT_TRUE(c.Save(path).ok());

  // Stream in deliberately awkward 13-byte buffers.
  auto opened = RowChunkReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RowChunkReader reader = std::move(opened.ValueOrDie());
  EXPECT_EQ(reader.rows(), 100u);
  EXPECT_EQ(reader.csv_bytes(), c.csv.size());
  std::string streamed;
  char buf[13];
  while (reader.csv_remaining() > 0) {
    auto got = reader.ReadCsv(buf, sizeof(buf));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (got.ValueOrDie() == 0) break;
    streamed.append(buf, got.ValueOrDie());
  }
  EXPECT_TRUE(reader.Finish().ok());
  EXPECT_EQ(streamed, c.csv);
}

TEST(SpillChunkTest, RowChunkReaderFinishRejectsPartialConsumption) {
  const std::string path = TempDir("sam_spill_rowpartial") + "/c.spill";
  RowChunk c;
  c.rows = 1;
  c.csv = "1,abcdefgh\n";
  ASSERT_TRUE(c.Save(path).ok());
  auto opened = RowChunkReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RowChunkReader reader = std::move(opened.ValueOrDie());
  char buf[4];
  ASSERT_TRUE(reader.ReadCsv(buf, sizeof(buf)).ok());
  Status st = reader.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("unread"), std::string::npos) << st.ToString();
}

TEST(SpillChunkTest, RowChunkReaderDetectsPayloadBitRotAtFinish) {
  const std::string path = TempDir("sam_spill_rowrot") + "/c.spill";
  RowChunk c;
  c.rows = 2;
  c.csv = "1,aaaa\n2,bbbb\n";
  ASSERT_TRUE(c.Save(path).ok());
  // Flip one bit deep in the CSV payload: the header still parses, the
  // stream still yields bytes, but Finish() must flag the chunk before
  // anything built from it can be published.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-3, std::ios::end);
    char byte;
    f.get(byte);
    f.seekp(-3, std::ios::end);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  auto opened = RowChunkReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RowChunkReader reader = std::move(opened.ValueOrDie());
  char buf[64];
  while (reader.csv_remaining() > 0) {
    auto got = reader.ReadCsv(buf, sizeof(buf));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (got.ValueOrDie() == 0) break;
  }
  Status st = reader.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos) << st.ToString();
}

TEST(SpillChunkTest, RowChunkReaderRejectsTruncationAndWrongTag) {
  const std::string dir = TempDir("sam_spill_rowbad");
  RowChunk c;
  c.rows = 3;
  c.csv = "1,x\n2,y\n3,z\n";
  ASSERT_TRUE(c.Save(dir + "/c.spill").ok());
  // Truncated file: caught at Open by the size check.
  std::filesystem::copy_file(dir + "/c.spill", dir + "/t.spill");
  std::filesystem::resize_file(
      dir + "/t.spill", std::filesystem::file_size(dir + "/t.spill") - 2);
  EXPECT_FALSE(RowChunkReader::Open(dir + "/t.spill").ok());
  // A different chunk type behind the shared spill kind: caught by the tag.
  FojChunk foj;
  foj.rows = 1;
  foj.codes = {{9}};
  ASSERT_TRUE(foj.Save(dir + "/f.spill").ok());
  auto as_rows = RowChunkReader::Open(dir + "/f.spill");
  ASSERT_FALSE(as_rows.ok());
  EXPECT_EQ(as_rows.status().code(), StatusCode::kInvalidArgument)
      << as_rows.status().ToString();
}

TEST(SpillChunkTest, LeftoverAndSummaryChunksRoundTrip) {
  const std::string dir = TempDir("sam_spill_left");
  LeftoverChunk lc;
  LeftoverSet set;
  set.weight = 0.75;
  set.fk_value = 5;
  set.members = {{1, 0.5}, {2, 0.25}};
  lc.sets.push_back(set);
  ASSERT_TRUE(lc.Save(dir + "/l.spill").ok());
  auto lback = LeftoverChunk::Load(dir + "/l.spill");
  ASSERT_TRUE(lback.ok()) << lback.status().ToString();
  ASSERT_EQ(lback.ValueOrDie().sets.size(), 1u);
  EXPECT_EQ(lback.ValueOrDie().sets[0].weight, 0.75);
  EXPECT_EQ(lback.ValueOrDie().sets[0].members[1].take, 0.25);

  GroupSummaryChunk gc;
  gc.groups = {{2.5, 0xdeadbeefull, 11, -1}};
  ASSERT_TRUE(gc.Save(dir + "/g.spill").ok());
  auto gback = GroupSummaryChunk::Load(dir + "/g.spill");
  ASSERT_TRUE(gback.ok()) << gback.status().ToString();
  ASSERT_EQ(gback.ValueOrDie().groups.size(), 1u);
  EXPECT_EQ(gback.ValueOrDie().groups[0].key_hash, 0xdeadbeefull);
}

TEST(SpillChunkTest, TypeTagConfusionIsRejected) {
  // All chunk kinds share the "SAMSPILL" artifact kind; the inner type tag
  // must catch a FojChunk being opened as a VirtualChunk.
  const std::string path = TempDir("sam_spill_conf") + "/c.spill";
  FojChunk c;
  c.rows = 1;
  c.codes = {{9}};
  ASSERT_TRUE(c.Save(path).ok());
  const auto as_virtual = VirtualChunk::Load(path);
  ASSERT_FALSE(as_virtual.ok());
  EXPECT_EQ(as_virtual.status().code(), StatusCode::kInvalidArgument)
      << as_virtual.status().ToString();
}

TEST(SpillChunkTest, CorruptionIsDetectedOnLoad) {
  const std::string path = TempDir("sam_spill_corrupt") + "/c.spill";
  FojChunk c;
  c.rows = 4;
  c.codes = {{1, 2, 3, 4}};
  ASSERT_TRUE(c.Save(path).ok());
  // Flip one payload bit.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  char byte;
  f.seekg(40);
  f.get(byte);
  f.seekp(40);
  f.put(static_cast<char>(byte ^ 0x10));
  f.close();
  EXPECT_FALSE(FojChunk::Load(path).ok());
}

TEST(SpillManifestTest, VerifiesPresenceAndSize) {
  const std::string dir = TempDir("sam_spill_manifest");
  RowChunk c;
  c.rows = 1;
  c.csv = "x\n";
  ASSERT_TRUE(c.Save(dir + "/rows_t_000000.spill").ok());
  const uint64_t bytes = std::filesystem::file_size(dir + "/rows_t_000000.spill");

  std::vector<SpillFileInfo> manifest = {{"rows_t_000000.spill", bytes}};
  EXPECT_TRUE(VerifySpillManifest(dir, manifest).ok());

  // Wrong size -> torn write detected at stat level.
  manifest[0].bytes = bytes + 1;
  Status st = VerifySpillManifest(dir, manifest);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("--resume"), std::string::npos) << st.ToString();

  // Missing file.
  manifest[0] = {"rows_t_000001.spill", bytes};
  EXPECT_FALSE(VerifySpillManifest(dir, manifest).ok());
}

}  // namespace
}  // namespace sam
