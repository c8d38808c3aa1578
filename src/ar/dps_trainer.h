#pragma once

#include <atomic>
#include <functional>
#include <span>
#include <string>

#include "ar/made.h"
#include "ar/model_schema.h"
#include "common/result.h"

namespace sam {

/// Logical shards per DPS minibatch. Each step splits its queries (all
/// sample paths of a query together) into this many contiguous shards, runs
/// one autodiff tape per shard and sums the shard gradients in shard order.
/// The trained bits depend on this count and never on
/// `DpsOptions::threads`; it is mixed into `TrainingFingerprint`.
inline constexpr size_t kDpsShards = 4;

/// \brief Options for Differentiable Progressive Sampling training (§4.1).
struct DpsOptions {
  size_t epochs = 10;
  size_t batch_size = 64;
  /// Sample paths per query per step; each path is one Gumbel-Softmax
  /// trajectory through the AR model.
  size_t sample_paths = 2;
  double learning_rate = 2e-3;
  double gumbel_tau = 1.0;
  /// When > 0, the Gumbel-Softmax temperature is annealed geometrically from
  /// `gumbel_tau` to `gumbel_tau_final` across the epochs — sharper samples
  /// late in training reduce the straight-through bias (one of the DPS
  /// improvements the paper lists as future work, §7).
  double gumbel_tau_final = 0;
  double clip_norm = 5.0;
  uint64_t seed = 777;
  /// Optional wall-clock budget in seconds (0 = unlimited). Mirrors the
  /// paper's fixed-time-frame protocol (§5.1): training stops mid-epoch when
  /// the budget is exhausted. Budget accounting survives checkpoint/resume.
  double time_budget_seconds = 0;
  /// Threads running the shard tapes of a step, the caller included (a
  /// `SpinTeam`): min(threads, kDpsShards), 0 = half the hardware threads
  /// (at least 1). 1 runs the same shard loop inline, with no helper
  /// threads. Trained parameters are bit-identical for every value, so it
  /// is not part of the training fingerprint.
  size_t threads = 0;

  // --- Fault tolerance (docs/CHECKPOINTING.md) -------------------------------

  /// When non-empty, training writes atomic, checksummed checkpoints into
  /// this directory (created if missing) every `checkpoint_every_epochs`
  /// epochs, on a stop request, on budget exhaustion, and at completion.
  std::string checkpoint_dir;
  size_t checkpoint_every_epochs = 1;
  /// Retain this many newest checkpoints (0 = keep all). Keep at least 2 so
  /// a corrupt newest file can fall back to its predecessor.
  size_t checkpoint_keep = 2;
  /// Resume from the newest valid checkpoint in `checkpoint_dir`. Resumed
  /// training is bit-identical to an uninterrupted run with the same
  /// options; a checkpoint from mismatched options/model/workload is
  /// rejected with `InvalidArgument`.
  bool resume = false;

  /// Cooperative stop flag (e.g. set from a SIGINT handler). Polled at every
  /// step boundary: the in-flight step finishes, a final checkpoint is
  /// written (when checkpointing is on), and TrainDps returns normally with
  /// the stats so far.
  const std::atomic<bool>* stop_flag = nullptr;

  /// Test/ops hook invoked before each step with (epoch, step_start).
  /// Deterministic interruption points for the fault-injection harness.
  std::function<void(size_t, size_t)> step_hook;
};

/// \brief Progress report per epoch.
struct DpsEpochStats {
  size_t epoch = 0;
  double mean_loss = 0;      ///< Mean squared log-cardinality error.
  double seconds_elapsed = 0;
  size_t queries_processed = 0;
};

using DpsCallback = std::function<void(const DpsEpochStats&)>;

/// \brief Trains `model` from the labelled workload with DPS.
///
/// Each step runs progressive sampling through the AR model with
/// Gumbel-Softmax straight-through samples, forms the predicted
/// log-cardinality
///   log|FOJ| + sum_i log P(X_i in R_i | x_<i) + sum log(1/F) (fanout scaling)
/// and minimises the squared error against log Card(q) — a smooth,
/// monotone-equivalent surrogate of the Q-Error objective in the paper.
///
/// Returns per-epoch stats; the model's sampler weights are synced on return.
///
/// With `options.checkpoint_dir` set the run is restartable: a crash at any
/// instant leaves either the previous valid checkpoint or a detectably
/// corrupt file that resume skips, and a resumed run produces bit-identical
/// final parameters to an uninterrupted one (tests/checkpoint_test.cc).
Result<std::vector<DpsEpochStats>> TrainDps(MadeModel* model,
                                            const Workload& train,
                                            const DpsOptions& options,
                                            const DpsCallback& callback = {});

/// One shard tape of a DPS step, the arithmetic `TrainDps` runs per shard:
/// progressive sampling with straight-through samples over `queries`, each
/// replicated `options.sample_paths` times as rows, through one causal
/// column sweep (`MadeModel::ColumnPass`); then the backward of the loss
/// sum(diff^2) / `batch_rows` into `leaves`, which it builds from the
/// model's current parameters. Returns that loss, so the shard losses of a
/// step sum to the minibatch mean. Gumbel noise is addressed by (`epoch`,
/// row key, column, unit); row r's key is `first_row + r`, whichever shard
/// or thread runs it.
double RunDpsShardTape(const MadeModel& model,
                       std::span<const CompiledQuery* const> queries,
                       const DpsOptions& options, size_t epoch, double tau,
                       uint64_t first_row, size_t batch_rows,
                       MadeModel::MaskedWeights* leaves);

/// Validates `options` (zero batch/epoch/path counts, a learning rate that
/// is not finite and > 0, non-finite or non-positive temperatures, negative
/// budgets, inconsistent checkpoint settings).
/// Called by TrainDps; exposed for front-ends that validate early.
Status ValidateDpsOptions(const DpsOptions& options);

/// Order-sensitive fingerprint of everything that shapes the training
/// arithmetic: DPS options, model architecture + schema layout, and the
/// training workload. Checkpoints embed it; resume requires equality.
uint64_t TrainingFingerprint(const DpsOptions& options, const MadeModel& model,
                             const Workload& train);

}  // namespace sam
