#include "storage/spill.h"

#include <filesystem>

#include "obs/metrics_registry.h"
#include "storage/artifact_io.h"

namespace sam {

namespace {

constexpr char kSpillKind[] = "SAMSPILL";
constexpr uint32_t kSpillVersion = 1;

/// Inner chunk-type tag: the artifact kind identifies the file as a spill
/// chunk, the tag identifies which chunk struct wrote it, so a manifest
/// mix-up surfaces as InvalidArgument instead of a garbled decode.
enum SpillChunkType : uint32_t {
  kFojChunk = 1,
  kVirtualChunk = 2,
  kRowChunk = 3,
  kLeftoverChunk = 4,
  kGroupSummaryChunk = 5,
};

void CountSpillWrite(size_t bytes) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter* files =
      obs::MetricsRegistry::Global().GetCounter("sam.generate.spill_files");
  static obs::Counter* total =
      obs::MetricsRegistry::Global().GetCounter("sam.generate.spill_bytes");
  files->Add(1);
  total->Add(bytes);
}

Status CommitChunk(const ArtifactWriter& w, const std::string& path) {
  SAM_RETURN_NOT_OK(w.Commit(path));
  CountSpillWrite(w.committed_size());
  return Status::OK();
}

Result<ArtifactReader> OpenChunk(const std::string& path,
                                 SpillChunkType expect) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r,
                       ArtifactReader::Open(path, kSpillKind));
  if (r.version() != kSpillVersion) {
    return Status::InvalidArgument("spill chunk '" + path +
                                   "' has unsupported version " +
                                   std::to_string(r.version()));
  }
  SAM_ASSIGN_OR_RETURN(const uint32_t type, r.GetU32());
  if (type != static_cast<uint32_t>(expect)) {
    return Status::InvalidArgument(
        "spill chunk '" + path + "' has type " + std::to_string(type) +
        ", expected " + std::to_string(static_cast<uint32_t>(expect)));
  }
  return r;
}

}  // namespace

Status MemoryBudget::CheckFits(int64_t bytes, const std::string& what) const {
  if (bytes < 0) {
    return Status::InvalidArgument("negative reservation for " + what);
  }
  if (cap_ > 0 && bytes > cap_ - reserved_) {
    return Status::InvalidArgument(
        "memory cap exceeded: " + what + " needs " + std::to_string(bytes) +
        " bytes on top of " + std::to_string(reserved_) +
        " reserved, but the cap is " + std::to_string(cap_) +
        " bytes; raise --memory-cap (the per-relation floor is documented in "
        "docs/GENERATION.md)");
  }
  return Status::OK();
}

Status MemoryBudget::Reserve(int64_t bytes, const std::string& what) {
  SAM_RETURN_NOT_OK(CheckFits(bytes, what));
  reserved_ += bytes;
  if (reserved_ > peak_) {
    peak_ = reserved_;
    if (obs::MetricsEnabled()) {
      static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
          "sam.generate.mem_reserved_bytes");
      g->Set(static_cast<double>(peak_));
    }
  }
  return Status::OK();
}

void MemoryBudget::Release(int64_t bytes) {
  reserved_ -= bytes;
  if (reserved_ < 0) reserved_ = 0;
}

Status ScopedReservation::Acquire(int64_t bytes, const std::string& what) {
  SAM_RETURN_NOT_OK(budget_->Reserve(bytes, what));
  held_ += bytes;
  return Status::OK();
}

void ScopedReservation::ReleaseAll() {
  if (held_ > 0) budget_->Release(held_);
  held_ = 0;
}

Status FojChunk::Save(const std::string& path) const {
  ArtifactWriter w(kSpillKind, kSpillVersion);
  w.PutU32(kFojChunk);
  w.PutU64(batch_index);
  w.PutU64(rows);
  w.PutU64(codes.size());
  for (const auto& col : codes) {
    if (col.size() != rows) {
      return Status::Internal("FojChunk column size " +
                              std::to_string(col.size()) +
                              " != rows " + std::to_string(rows));
    }
    w.PutBytes(col.data(), col.size() * sizeof(int32_t));
  }
  return CommitChunk(w, path);
}

Result<FojChunk> FojChunk::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r, OpenChunk(path, kFojChunk));
  FojChunk c;
  SAM_ASSIGN_OR_RETURN(c.batch_index, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.rows, r.GetU64());
  SAM_ASSIGN_OR_RETURN(const uint64_t cols, r.GetU64());
  if (c.rows != 0 && cols > r.remaining() / (c.rows * sizeof(int32_t))) {
    return Status::OutOfRange("FojChunk '" + path +
                              "' dimensions overrun payload");
  }
  c.codes.resize(cols);
  for (auto& col : c.codes) {
    col.resize(c.rows);
    SAM_RETURN_NOT_OK(r.GetBytes(col.data(), c.rows * sizeof(int32_t)));
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

Status VirtualChunk::Save(const std::string& path) const {
  ArtifactWriter w(kSpillKind, kSpillVersion);
  w.PutU32(kVirtualChunk);
  w.PutU64(records.size());
  for (const auto& v : records) {
    w.PutU32(v.sample);
    w.PutDouble(v.fraction);
    w.PutI64(v.fk_value);
  }
  return CommitChunk(w, path);
}

Result<VirtualChunk> VirtualChunk::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r, OpenChunk(path, kVirtualChunk));
  VirtualChunk c;
  SAM_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  // Each record serialises to 20 bytes (u32 + double + i64).
  if (count > r.remaining() / 20) {
    return Status::OutOfRange("VirtualChunk '" + path +
                              "' record count overruns payload");
  }
  c.records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SpillVirtual v;
    SAM_ASSIGN_OR_RETURN(v.sample, r.GetU32());
    SAM_ASSIGN_OR_RETURN(v.fraction, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(v.fk_value, r.GetI64());
    c.records.push_back(v);
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

Status RowChunk::Save(const std::string& path) const {
  ArtifactWriter w(kSpillKind, kSpillVersion);
  w.PutU32(kRowChunk);
  w.PutU64(rows);
  w.PutString(csv);
  return CommitChunk(w, path);
}

Result<RowChunk> RowChunk::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r, OpenChunk(path, kRowChunk));
  RowChunk c;
  SAM_ASSIGN_OR_RETURN(c.rows, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.csv, r.GetString());
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

Result<RowChunkReader> RowChunkReader::Open(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(StreamingArtifactReader r,
                       StreamingArtifactReader::Open(path, kSpillKind));
  if (r.version() != kSpillVersion) {
    return Status::InvalidArgument("spill chunk '" + path +
                                   "' has unsupported version " +
                                   std::to_string(r.version()));
  }
  SAM_ASSIGN_OR_RETURN(const uint32_t type, r.ReadU32());
  if (type != static_cast<uint32_t>(kRowChunk)) {
    return Status::InvalidArgument(
        "spill chunk '" + path + "' has type " + std::to_string(type) +
        ", expected " + std::to_string(static_cast<uint32_t>(kRowChunk)));
  }
  RowChunkReader reader(std::move(r));
  SAM_ASSIGN_OR_RETURN(reader.rows_, reader.reader_.ReadU64());
  SAM_ASSIGN_OR_RETURN(reader.csv_bytes_, reader.reader_.ReadU64());
  if (reader.csv_bytes_ != reader.reader_.remaining()) {
    return Status::IOError(
        "RowChunk '" + path + "' corrupt: declares " +
        std::to_string(reader.csv_bytes_) + " CSV bytes, payload has " +
        std::to_string(reader.reader_.remaining()));
  }
  return reader;
}

Status LeftoverChunk::Save(const std::string& path) const {
  ArtifactWriter w(kSpillKind, kSpillVersion);
  w.PutU32(kLeftoverChunk);
  w.PutU64(sets.size());
  for (const auto& s : sets) {
    w.PutDouble(s.weight);
    w.PutI64(s.fk_value);
    w.PutU64(s.members.size());
    for (const auto& m : s.members) {
      w.PutU32(m.sample);
      w.PutDouble(m.take);
    }
  }
  return CommitChunk(w, path);
}

Result<LeftoverChunk> LeftoverChunk::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r, OpenChunk(path, kLeftoverChunk));
  LeftoverChunk c;
  SAM_ASSIGN_OR_RETURN(const uint64_t n_sets, r.GetU64());
  // Each set needs at least its 24-byte fixed part.
  if (n_sets > r.remaining() / 24) {
    return Status::OutOfRange("LeftoverChunk '" + path +
                              "' set count overruns payload");
  }
  c.sets.reserve(n_sets);
  for (uint64_t i = 0; i < n_sets; ++i) {
    LeftoverSet s;
    SAM_ASSIGN_OR_RETURN(s.weight, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(s.fk_value, r.GetI64());
    SAM_ASSIGN_OR_RETURN(const uint64_t n_members, r.GetU64());
    if (n_members > r.remaining() / 12) {
      return Status::OutOfRange("LeftoverChunk '" + path +
                                "' member count overruns payload");
    }
    s.members.reserve(n_members);
    for (uint64_t j = 0; j < n_members; ++j) {
      LeftoverMember m;
      SAM_ASSIGN_OR_RETURN(m.sample, r.GetU32());
      SAM_ASSIGN_OR_RETURN(m.take, r.GetDouble());
      s.members.push_back(m);
    }
    c.sets.push_back(std::move(s));
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

Status GroupSummaryChunk::Save(const std::string& path) const {
  ArtifactWriter w(kSpillKind, kSpillVersion);
  w.PutU32(kGroupSummaryChunk);
  w.PutU64(groups.size());
  for (const auto& g : groups) {
    w.PutDouble(g.mass);
    w.PutU64(g.key_hash);
    w.PutU32(g.sample);
    w.PutI64(g.fk_value);
  }
  return CommitChunk(w, path);
}

Result<GroupSummaryChunk> GroupSummaryChunk::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r, OpenChunk(path, kGroupSummaryChunk));
  GroupSummaryChunk c;
  SAM_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  // Each summary serialises to 28 bytes.
  if (count > r.remaining() / 28) {
    return Status::OutOfRange("GroupSummaryChunk '" + path +
                              "' group count overruns payload");
  }
  c.groups.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    GroupSummary g;
    SAM_ASSIGN_OR_RETURN(g.mass, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(g.key_hash, r.GetU64());
    SAM_ASSIGN_OR_RETURN(g.sample, r.GetU32());
    SAM_ASSIGN_OR_RETURN(g.fk_value, r.GetI64());
    c.groups.push_back(g);
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

Status VerifySpillManifest(const std::string& dir,
                           const std::vector<SpillFileInfo>& manifest) {
  namespace fs = std::filesystem;
  for (const auto& f : manifest) {
    const std::string path = dir + "/" + f.name;
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec) {
      return Status::IOError("spill file '" + path +
                             "' from the checkpoint manifest is missing (" +
                             ec.message() +
                             "); the work directory was modified — delete it "
                             "and restart without --resume");
    }
    if (size != f.bytes) {
      return Status::IOError("spill file '" + path + "' is " +
                             std::to_string(size) + " bytes, manifest says " +
                             std::to_string(f.bytes) +
                             "; the work directory was modified — delete it "
                             "and restart without --resume");
    }
  }
  return Status::OK();
}

}  // namespace sam
