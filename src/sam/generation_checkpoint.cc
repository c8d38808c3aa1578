#include "sam/generation_checkpoint.h"

#include <cstdio>

#include "ar/training_checkpoint.h"
#include "storage/artifact_io.h"

namespace sam {

namespace {

constexpr char kGenCheckpointKind[] = "GENCKPT";
constexpr uint32_t kGenCheckpointVersion = 1;
constexpr char kGenCheckpointPrefix[] = "genckpt_";

}  // namespace

Status GenerationCheckpoint::Save(const std::string& path) const {
  ArtifactWriter w(kGenCheckpointKind, kGenCheckpointVersion);
  w.PutU64(fingerprint);
  w.PutU64(base_seed);
  w.PutU64(next_step);
  w.PutU64(relations.size());
  for (const auto& r : relations) {
    w.PutString(r.name);
    w.PutI64(r.pk_counter);
    w.PutU64(r.rows_emitted);
    w.PutU64(r.row_chunk_seq);
    w.PutU64(r.virt_chunk_seq.size());
    for (uint64_t v : r.virt_chunk_seq) w.PutU64(v);
    w.PutDouble(r.incoming_mass);
    w.PutDouble(r.leaf_carry);
    w.PutBool(r.leaf_last_valid);
    w.PutU32(r.leaf_last_sample);
    w.PutI64(r.leaf_last_fk);
  }
  w.PutU64(manifest.size());
  for (const auto& f : manifest) {
    w.PutString(f.name);
    w.PutU64(f.bytes);
  }
  w.PutU64(rows_total);
  w.PutU64(spill_bytes);
  w.PutI64(peak_reserved);
  return w.Commit(path);
}

Result<GenerationCheckpoint> GenerationCheckpoint::Load(
    const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r,
                       ArtifactReader::Open(path, kGenCheckpointKind));
  if (r.version() != kGenCheckpointVersion) {
    return Status::InvalidArgument("generation checkpoint '" + path +
                                   "' has unsupported version " +
                                   std::to_string(r.version()));
  }
  GenerationCheckpoint c;
  SAM_ASSIGN_OR_RETURN(c.fingerprint, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.base_seed, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.next_step, r.GetU64());
  SAM_ASSIGN_OR_RETURN(const uint64_t n_rel, r.GetU64());
  // Each relation needs at least its fixed ~70-byte part; guard the reserve
  // against a corrupt count.
  if (n_rel > r.remaining() / 64) {
    return Status::OutOfRange("generation checkpoint relation count " +
                              std::to_string(n_rel) + " overruns payload");
  }
  c.relations.reserve(n_rel);
  for (uint64_t i = 0; i < n_rel; ++i) {
    RelationState s;
    SAM_ASSIGN_OR_RETURN(s.name, r.GetString());
    SAM_ASSIGN_OR_RETURN(s.pk_counter, r.GetI64());
    SAM_ASSIGN_OR_RETURN(s.rows_emitted, r.GetU64());
    SAM_ASSIGN_OR_RETURN(s.row_chunk_seq, r.GetU64());
    SAM_ASSIGN_OR_RETURN(const uint64_t n_parts, r.GetU64());
    if (n_parts > r.remaining() / sizeof(uint64_t)) {
      return Status::OutOfRange(
          "generation checkpoint partition count overruns payload");
    }
    s.virt_chunk_seq.resize(n_parts);
    for (auto& v : s.virt_chunk_seq) {
      SAM_ASSIGN_OR_RETURN(v, r.GetU64());
    }
    SAM_ASSIGN_OR_RETURN(s.incoming_mass, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(s.leaf_carry, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(s.leaf_last_valid, r.GetBool());
    SAM_ASSIGN_OR_RETURN(s.leaf_last_sample, r.GetU32());
    SAM_ASSIGN_OR_RETURN(s.leaf_last_fk, r.GetI64());
    c.relations.push_back(std::move(s));
  }
  SAM_ASSIGN_OR_RETURN(const uint64_t n_files, r.GetU64());
  if (n_files > r.remaining() / 16) {
    return Status::OutOfRange(
        "generation checkpoint manifest count overruns payload");
  }
  c.manifest.reserve(n_files);
  for (uint64_t i = 0; i < n_files; ++i) {
    SpillFileInfo f;
    SAM_ASSIGN_OR_RETURN(f.name, r.GetString());
    SAM_ASSIGN_OR_RETURN(f.bytes, r.GetU64());
    c.manifest.push_back(std::move(f));
  }
  SAM_ASSIGN_OR_RETURN(c.rows_total, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.spill_bytes, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.peak_reserved, r.GetI64());
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

std::string GenerationCheckpointFileName(uint64_t next_step) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%08llu.ckpt", kGenCheckpointPrefix,
                static_cast<unsigned long long>(next_step));
  return buf;
}

Result<GenerationCheckpoint> LoadLatestValidGenerationCheckpoint(
    const std::string& dir, std::string* loaded_path) {
  return LoadNewestValidCheckpointWithPrefix<GenerationCheckpoint>(
      dir, kGenCheckpointPrefix, "generation checkpoint",
      &GenerationCheckpoint::Load, loaded_path);
}

void PruneGenerationCheckpoints(const std::string& dir, size_t keep) {
  PruneCheckpointsWithPrefix(dir, kGenCheckpointPrefix, keep);
}

}  // namespace sam
