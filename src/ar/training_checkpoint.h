#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ar/dps_trainer.h"
#include "common/logging.h"
#include "common/result.h"
#include "linalg/matrix.h"

namespace sam {

/// \brief Complete durable snapshot of a DPS training run.
///
/// A checkpoint captures *everything* the training loop mutates — model
/// parameters, Adam moments and step count, the current learning rate, the
/// shuffled example order, the RNG engine state, the epoch/step cursor, the
/// partial-epoch loss accumulators, accumulated wall-clock seconds and the
/// per-epoch stats so far — so that an interrupted run resumed from the
/// snapshot replays the identical arithmetic, bit for bit, as an
/// uninterrupted run (see docs/CHECKPOINTING.md for the contract).
///
/// `fingerprint` hashes the DpsOptions, the model architecture and the
/// training workload; `TrainDps` refuses to resume across a mismatch with
/// `InvalidArgument` instead of silently diverging.
struct TrainingCheckpoint {
  uint64_t fingerprint = 0;

  /// Cursor: resume at `epoch`, at the batch starting at `order[step_start]`.
  /// `in_epoch` records that the epoch-start mutations (LR decay, shuffle,
  /// accumulator reset) have already been applied for `epoch`; resume must
  /// skip them. Epoch-boundary checkpoints have `in_epoch == false` and
  /// `step_start == 0`.
  uint64_t epoch = 0;
  uint64_t step_start = 0;
  bool in_epoch = false;

  /// Wall-clock seconds consumed before the snapshot (resumes the
  /// `time_budget_seconds` accounting).
  double seconds_elapsed = 0;

  /// Partial-epoch loss accumulators (meaningful when `in_epoch`).
  double epoch_loss_sum = 0;
  uint64_t epoch_loss_count = 0;
  uint64_t epoch_processed = 0;

  /// `Rng::SaveState()` of the training RNG.
  std::string rng_state;
  /// The (shuffled-in-place) example order.
  std::vector<uint64_t> order;

  int64_t adam_step_count = 0;
  double adam_lr = 0;
  std::vector<Matrix> adam_m;
  std::vector<Matrix> adam_v;

  /// Model parameter values, in `MadeModel::params()` order.
  std::vector<Matrix> params;

  /// Per-epoch stats of completed epochs (so resumed runs report full
  /// histories).
  std::vector<DpsEpochStats> stats;

  /// Atomic, checksummed write via the artifact layer.
  Status Save(const std::string& path) const;

  /// Validates and loads a checkpoint; any corruption (truncation, bit rot,
  /// torn write) yields a non-OK status and never a half-filled snapshot.
  static Result<TrainingCheckpoint> Load(const std::string& path);
};

/// Canonical checkpoint file name for a cursor, chosen so lexicographic
/// order equals training order: `ckpt_<epoch:06>_<step:08>.ckpt`.
std::string CheckpointFileName(uint64_t epoch, uint64_t step_start);

/// Checkpoint files in `dir` (exact `ckpt_*.ckpt` matches only — temp files
/// from torn commits are never listed), sorted oldest → newest. An absent
/// directory yields an empty list.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// Prefix-parameterised variant shared with the generation checkpoints
/// (`genckpt_*.ckpt`): lists `<prefix>*.ckpt` files in `dir`, sorted
/// oldest → newest (names embed zero-padded cursors, so lexicographic order
/// is progress order).
std::vector<std::string> ListCheckpointFilesWithPrefix(
    const std::string& dir, const std::string& prefix);

/// \brief The newest-valid scan shared by training and generation
/// checkpoints: tries `load` on the `<prefix>*.ckpt` files in `dir`, newest
/// first, skipping corrupt ones with a warning. `NotFound` when there are no
/// such files, `IOError` when every one is corrupt; `noun` ("checkpoint",
/// "generation checkpoint") names the kind in the messages.
template <typename T>
Result<T> LoadNewestValidCheckpointWithPrefix(
    const std::string& dir, const std::string& prefix, const std::string& noun,
    Result<T> (*load)(const std::string&), std::string* loaded_path) {
  const std::vector<std::string> files =
      ListCheckpointFilesWithPrefix(dir, prefix);
  if (files.empty()) {
    return Status::NotFound("no " + noun + "s in '" + dir + "'");
  }
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    Result<T> loaded = load(*it);
    if (loaded.ok()) {
      if (loaded_path != nullptr) *loaded_path = *it;
      return loaded;
    }
    SAM_LOG(Warn) << "skipping corrupt " << noun << " " << *it << ": "
                  << loaded.status().ToString();
  }
  return Status::IOError("all " + std::to_string(files.size()) + " " + noun +
                         "(s) in '" + dir +
                         "' are corrupt; refusing to restart from scratch "
                         "silently (clear the directory to start over)");
}

/// \brief Loads the newest checkpoint in `dir` that passes validation.
///
/// Corrupt files are skipped (with a warning) and the next-older candidate
/// is tried — a crash mid-commit therefore falls back to the previous valid
/// snapshot. Returns `NotFound` when the directory holds no checkpoints at
/// all, and `IOError` when checkpoints exist but every one is corrupt
/// (training state existed and was lost; starting silently from scratch
/// would mask the corruption).
Result<TrainingCheckpoint> LoadLatestValidCheckpoint(const std::string& dir,
                                                     std::string* loaded_path);

/// Deletes all but the newest `keep` checkpoints in `dir` (0 keeps all).
/// Best-effort: deletion errors are ignored.
void PruneCheckpoints(const std::string& dir, size_t keep);

/// Prefix-parameterised variant of `PruneCheckpoints` (see
/// `ListCheckpointFilesWithPrefix`).
void PruneCheckpointsWithPrefix(const std::string& dir,
                                const std::string& prefix, size_t keep);

}  // namespace sam
