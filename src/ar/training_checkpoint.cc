#include "ar/training_checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "storage/artifact_io.h"

namespace sam {

namespace {

constexpr char kCheckpointKind[] = "TRAINCKP";
constexpr uint32_t kCheckpointVersion = 1;

void PutMatrixVector(ArtifactWriter* w, const std::vector<Matrix>& ms) {
  w->PutU64(ms.size());
  for (const auto& m : ms) w->PutMatrix(m);
}

Result<std::vector<Matrix>> GetMatrixVector(ArtifactReader* r) {
  SAM_ASSIGN_OR_RETURN(const uint64_t count, r->GetU64());
  // Every matrix needs at least its 16-byte dimension header, so a corrupt
  // count cannot trigger a pathological reserve.
  if (count > r->remaining() / 16) {
    return Status::OutOfRange("checkpoint matrix count " +
                              std::to_string(count) + " overruns payload");
  }
  std::vector<Matrix> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SAM_ASSIGN_OR_RETURN(Matrix m, r->GetMatrix());
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

Status TrainingCheckpoint::Save(const std::string& path) const {
  ArtifactWriter w(kCheckpointKind, kCheckpointVersion);
  w.PutU64(fingerprint);
  w.PutU64(epoch);
  w.PutU64(step_start);
  w.PutBool(in_epoch);
  w.PutDouble(seconds_elapsed);
  w.PutDouble(epoch_loss_sum);
  w.PutU64(epoch_loss_count);
  w.PutU64(epoch_processed);
  w.PutString(rng_state);
  w.PutU64(order.size());
  for (uint64_t v : order) w.PutU64(v);
  w.PutI64(adam_step_count);
  w.PutDouble(adam_lr);
  PutMatrixVector(&w, adam_m);
  PutMatrixVector(&w, adam_v);
  PutMatrixVector(&w, params);
  w.PutU64(stats.size());
  for (const auto& s : stats) {
    w.PutU64(s.epoch);
    w.PutDouble(s.mean_loss);
    w.PutDouble(s.seconds_elapsed);
    w.PutU64(s.queries_processed);
  }
  return w.Commit(path);
}

Result<TrainingCheckpoint> TrainingCheckpoint::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r,
                       ArtifactReader::Open(path, kCheckpointKind));
  if (r.version() != kCheckpointVersion) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "' has unsupported version " +
                                   std::to_string(r.version()));
  }
  TrainingCheckpoint c;
  SAM_ASSIGN_OR_RETURN(c.fingerprint, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.epoch, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.step_start, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.in_epoch, r.GetBool());
  SAM_ASSIGN_OR_RETURN(c.seconds_elapsed, r.GetDouble());
  SAM_ASSIGN_OR_RETURN(c.epoch_loss_sum, r.GetDouble());
  SAM_ASSIGN_OR_RETURN(c.epoch_loss_count, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.epoch_processed, r.GetU64());
  SAM_ASSIGN_OR_RETURN(c.rng_state, r.GetString());
  SAM_ASSIGN_OR_RETURN(const uint64_t order_size, r.GetU64());
  if (order_size > r.remaining() / sizeof(uint64_t)) {
    return Status::OutOfRange("checkpoint order size " +
                              std::to_string(order_size) +
                              " overruns payload");
  }
  c.order.resize(order_size);
  for (auto& v : c.order) {
    SAM_ASSIGN_OR_RETURN(v, r.GetU64());
  }
  SAM_ASSIGN_OR_RETURN(c.adam_step_count, r.GetI64());
  SAM_ASSIGN_OR_RETURN(c.adam_lr, r.GetDouble());
  SAM_ASSIGN_OR_RETURN(c.adam_m, GetMatrixVector(&r));
  SAM_ASSIGN_OR_RETURN(c.adam_v, GetMatrixVector(&r));
  SAM_ASSIGN_OR_RETURN(c.params, GetMatrixVector(&r));
  SAM_ASSIGN_OR_RETURN(const uint64_t n_stats, r.GetU64());
  if (n_stats > r.remaining() / 32) {
    return Status::OutOfRange("checkpoint stats count overruns payload");
  }
  c.stats.reserve(n_stats);
  for (uint64_t i = 0; i < n_stats; ++i) {
    DpsEpochStats s;
    SAM_ASSIGN_OR_RETURN(const uint64_t e, r.GetU64());
    s.epoch = e;
    SAM_ASSIGN_OR_RETURN(s.mean_loss, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(s.seconds_elapsed, r.GetDouble());
    SAM_ASSIGN_OR_RETURN(const uint64_t q, r.GetU64());
    s.queries_processed = q;
    c.stats.push_back(s);
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  return c;
}

std::string CheckpointFileName(uint64_t epoch, uint64_t step_start) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt_%06llu_%08llu.ckpt",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(step_start));
  return buf;
}

std::vector<std::string> ListCheckpointFilesWithPrefix(
    const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 5 && name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      names.push_back(name);
    }
  }
  // File names embed zero-padded cursors, so lexicographic order is
  // progress order.
  std::sort(names.begin(), names.end());
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(dir + "/" + n);
  return paths;
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  return ListCheckpointFilesWithPrefix(dir, "ckpt_");
}

Result<TrainingCheckpoint> LoadLatestValidCheckpoint(
    const std::string& dir, std::string* loaded_path) {
  return LoadNewestValidCheckpointWithPrefix<TrainingCheckpoint>(
      dir, "ckpt_", "checkpoint", &TrainingCheckpoint::Load, loaded_path);
}

void PruneCheckpointsWithPrefix(const std::string& dir,
                                const std::string& prefix, size_t keep) {
  if (keep == 0) return;
  const std::vector<std::string> files =
      ListCheckpointFilesWithPrefix(dir, prefix);
  if (files.size() <= keep) return;
  std::error_code ec;
  for (size_t i = 0; i + keep < files.size(); ++i) {
    std::filesystem::remove(files[i], ec);
  }
}

void PruneCheckpoints(const std::string& dir, size_t keep) {
  PruneCheckpointsWithPrefix(dir, "ckpt_", keep);
}

}  // namespace sam
