#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/artifact_io.h"

namespace sam {

/// \brief Byte accounting for the out-of-core generation pipeline's
/// `--memory-cap` budget.
///
/// Every data-proportional structure the pipeline materialises (resident
/// code columns, weight arrays, chunk read/write buffers, group tables,
/// leftover sets) reserves its bytes here before allocating and releases
/// them when freed. `peak()` is the pipeline's RSS proxy: the cap property
/// test asserts it never exceeds `cap()`. A reservation that cannot fit is
/// the signal to degrade — flush a buffer, raise the partition fan-out —
/// and only when no degradation exists does `Reserve` surface a clean
/// `InvalidArgument` naming the structure and the required floor, instead
/// of letting the process grow until the OOM killer finds it.
///
/// Fixed overheads that do not scale with the data (model weights, sampler
/// scratch proportional to `generation_batch`) are deliberately outside the
/// budget; docs/GENERATION.md documents the floor.
class MemoryBudget {
 public:
  /// `cap_bytes <= 0` disables enforcement (accounting still runs).
  explicit MemoryBudget(int64_t cap_bytes) : cap_(cap_bytes) {}

  /// Tries to reserve `bytes`; on success the reservation must later be
  /// `Release`d. Fails with `InvalidArgument` when the cap would be
  /// exceeded, naming `what`.
  Status Reserve(int64_t bytes, const std::string& what);

  /// `Reserve`'s verdict on `bytes` without reserving anything: OK when they
  /// would fit, else the same "memory cap exceeded" error naming `what`.
  /// Safe for any non-negative `bytes`, `INT64_MAX` included.
  Status CheckFits(int64_t bytes, const std::string& what) const;

  void Release(int64_t bytes);

  int64_t cap() const { return cap_; }
  int64_t reserved() const { return reserved_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t cap_ = 0;
  int64_t reserved_ = 0;
  int64_t peak_ = 0;
};

/// \brief RAII helper tying one or more reservations to a scope.
class ScopedReservation {
 public:
  explicit ScopedReservation(MemoryBudget* budget) : budget_(budget) {}
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ~ScopedReservation() { ReleaseAll(); }

  /// Adds `bytes` to this scope's reservation.
  Status Acquire(int64_t bytes, const std::string& what);
  void ReleaseAll();

  int64_t held() const { return held_; }

 private:
  MemoryBudget* budget_;
  int64_t held_ = 0;
};

// ---------------------------------------------------------------------------
// Spill chunks: the pipeline's on-disk intermediates. Every chunk is a
// checksummed artifact (kind "SAMSPILL") committed through the crash-safe
// artifact layer, so a torn write or bit rot surfaces as a clean IOError on
// read, never as silently wrong data. Chunk writes feed the
// `sam.generate.spill_files` / `sam.generate.spill_bytes` counters, chunk
// reads `sam.generate.spill_read_files` / `sam.generate.spill_read_bytes`.
// ---------------------------------------------------------------------------

/// One batch of sampled FOJ tuples as raw model codes, column-major.
struct FojChunk {
  uint64_t batch_index = 0;
  uint64_t rows = 0;
  std::vector<std::vector<int32_t>> codes;  ///< [column][row].

  Status Save(const std::string& path) const;
  static Result<FojChunk> Load(const std::string& path);

  /// Budget bytes of a loaded chunk.
  static int64_t BytesFor(uint64_t rows, uint64_t cols) {
    return static_cast<int64_t>(rows * cols * sizeof(int32_t));
  }
};

/// A (sample, portion) pair flowing down the join tree, with the parent key
/// already assigned (-1 at the root).
struct SpillVirtual {
  uint32_t sample = 0;
  double fraction = 1.0;
  int64_t fk_value = -1;
};

/// A run of virtual samples bound for one (relation, partition).
struct VirtualChunk {
  std::vector<SpillVirtual> records;

  Status Save(const std::string& path) const;
  static Result<VirtualChunk> Load(const std::string& path);

  static int64_t BytesFor(uint64_t records) {
    return static_cast<int64_t>(records * sizeof(SpillVirtual));
  }
};

/// Generated rows already rendered as CSV bytes (no header line); the
/// assembly phase concatenates these behind the header without re-decoding.
struct RowChunk {
  uint64_t rows = 0;
  std::string csv;

  Status Save(const std::string& path) const;
  static Result<RowChunk> Load(const std::string& path);
};

/// \brief Streams the CSV payload of a `RowChunk` without materialising it.
///
/// The assembly phase concatenates row chunks whose combined size is the
/// whole published table, so loading each chunk through `RowChunk::Load`
/// defeats the memory cap. This reader validates the chunk preamble up
/// front, hands out CSV bytes in caller-sized buffers, and verifies the
/// chained payload checksum in `Finish()` — which callers must invoke
/// *before* committing whatever consumed the bytes, so bit rot still
/// surfaces as an `IOError` with nothing published.
class RowChunkReader {
 public:
  static Result<RowChunkReader> Open(const std::string& path);

  RowChunkReader(RowChunkReader&&) noexcept = default;
  RowChunkReader& operator=(RowChunkReader&&) noexcept = default;

  uint64_t rows() const { return rows_; }
  uint64_t csv_bytes() const { return csv_bytes_; }
  uint64_t csv_remaining() const { return reader_.remaining(); }

  /// Reads up to `cap` CSV bytes into `buf`; returns 0 once exhausted.
  Result<size_t> ReadCsv(char* buf, size_t cap) {
    return reader_.Read(buf, cap);
  }

  /// Verifies full consumption and the payload checksum.
  Status Finish() const { return reader_.Finish(); }

 private:
  explicit RowChunkReader(StreamingArtifactReader reader)
      : reader_(std::move(reader)) {}

  StreamingArtifactReader reader_;
  uint64_t rows_ = 0;
  uint64_t csv_bytes_ = 0;
};

/// A sub-unit merge set left over by pass 1 of Group-and-Merge; pass 2
/// assigns keys to the heaviest sets across all partitions.
struct LeftoverMember {
  uint32_t sample = 0;
  double take = 0;  ///< Weight consumed from this member, in |R| units.
};

struct LeftoverSet {
  double weight = 0;
  int64_t fk_value = -1;
  std::vector<LeftoverMember> members;
};

struct LeftoverChunk {
  std::vector<LeftoverSet> sets;

  Status Save(const std::string& path) const;
  static Result<LeftoverChunk> Load(const std::string& path);
};

/// Per-merge-group digest (mass, deterministic key hash, representative
/// sample) used by the shortfall top-up: only read when pass 2 runs dry, so
/// the full group tables never need to be resident again.
struct GroupSummary {
  double mass = 0;
  uint64_t key_hash = 0;
  uint32_t sample = 0;
  int64_t fk_value = -1;
};

struct GroupSummaryChunk {
  std::vector<GroupSummary> groups;

  Status Save(const std::string& path) const;
  static Result<GroupSummaryChunk> Load(const std::string& path);
};

/// Manifest entry: a spill file the checkpoint expects to find on resume.
struct SpillFileInfo {
  std::string name;    ///< Path relative to the pipeline work directory.
  uint64_t bytes = 0;  ///< Exact on-disk size (header + payload).
};

/// Verifies that every manifest entry exists under `dir` with its recorded
/// size (cheap stat-level check; payload CRCs are verified on actual read).
Status VerifySpillManifest(const std::string& dir,
                           const std::vector<SpillFileInfo>& manifest);

}  // namespace sam
