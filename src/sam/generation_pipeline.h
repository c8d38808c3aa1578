#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "sam/sam_model.h"

namespace sam {

/// \brief Configuration of one out-of-core generation run.
struct GenerationPipelineOptions {
  /// Directory the generated database is published into (all-or-nothing).
  std::string out_dir;
  /// Directory for spill chunks, the staging database and checkpoints.
  /// Cleared on a fresh run when missing, empty or marked by an earlier
  /// run (a non-empty directory without the marker fails with
  /// `InvalidArgument`, untouched); removed on success unless
  /// `keep_work_dir`.
  std::string work_dir;
  /// Resume from the newest valid checkpoint in `work_dir` instead of
  /// starting fresh. Fails with `NotFound` when none exists and
  /// `InvalidArgument` when the checkpointed configuration fingerprint does
  /// not match the current model/options.
  bool resume = false;
  /// Cooperative stop (SIGINT/SIGTERM): checked between durable steps; when
  /// set, the pipeline checkpoints and returns with `completed == false`.
  std::atomic<bool>* stop_flag = nullptr;
  /// Test knob: execute at most this many durable steps in this invocation
  /// (0 = unlimited), then checkpoint and return. Drives the
  /// kill-at-every-step resume sweep.
  uint64_t stop_after_steps = 0;
  /// Checkpoints retained in `work_dir` (0 keeps all).
  size_t checkpoint_keep = 3;
  /// Width the run asks of the shared worker set (`SharedThreadPool()`): 0 =
  /// the set's width, 1 = the fully serial reference, with no lookahead.
  /// When parallel, an in-order lookahead of up to `threads` entries, each
  /// a task on that set, runs the pure phase of the steps
  /// after the executing one, while they are of its kind: a sample step's
  /// batch, or phase A (gather the partition's virtual samples, build its
  /// merge groups) of the next partitions of the same relation. The
  /// pipeline thread consumes the entries strictly in plan order; spill
  /// writes, row decoding, key assignment and child-virtual emission are
  /// the same code for every thread count, so every spill file,
  /// checkpoint cursor and published byte is identical for every thread
  /// count. Each entry reserves its memory from the cap before dispatch,
  /// only while a quarter of the cap stays free (fewer entries, down to
  /// none, when tight), and the thread count is deliberately excluded from
  /// the resume fingerprint.
  size_t threads = 0;
  /// Keep spill files and checkpoints after a successful publish (debugging).
  bool keep_work_dir = false;
  /// Test seam: when set, the sample steps read their FOJ tuples from this
  /// sample (which must outlive the run) instead of drawing them from the
  /// model, so `SamModel::GenerateFromFoj` can inject exact tuples. Its
  /// codes are part of the resume fingerprint, and sample steps skip the
  /// lookahead.
  const SamModel::FojSample* injected_foj = nullptr;
};

/// \brief Outcome of a pipeline invocation.
struct GenerationRunSummary {
  /// True: the database was published to `out_dir` and the work directory
  /// cleaned up. False: the run stopped early (stop flag / step budget) with
  /// a checkpoint on disk; re-run with `resume = true` to continue.
  bool completed = false;
  uint64_t steps_executed = 0;  ///< Durable steps run by *this* invocation.
  uint64_t steps_total = 0;     ///< Steps in the whole plan.
  uint64_t next_step = 0;       ///< Cursor after this invocation.
  uint64_t rows_written = 0;    ///< Across all relations so far.
  uint64_t spill_bytes = 0;     ///< Total bytes committed to spill files.
  int64_t peak_reserved = 0;    ///< High-water mark of budget reservations.
  std::string resumed_from;     ///< Checkpoint path, empty for a fresh run.
};

/// \brief Crash-safe, resumable, memory-bounded generation: the one
/// implementation of Alg 2/3 (IPW, scaling, Group-and-Merge), which
/// multi-relation `SamModel::Generate` runs into a private directory.
///
/// Generation is decomposed into a deterministic sequence of durable steps —
/// sample batches, per-partition Group-and-Merge, leftover pass-2, CSV
/// assembly, publish — whose intermediates live in checksummed spill files
/// under `work_dir` and whose cross-step state lives in a
/// `GenerationCheckpoint`. Killing the process at any instant and re-running
/// with `resume = true` publishes a database byte-identical to an
/// uninterrupted run. Data-proportional memory is accounted against
/// `SamOptions::memory_cap_bytes`: tight caps raise the partition fan-out
/// and shrink spill buffers (more I/O, same output — the chunk layout is
/// fixed per configuration), and a cap below the documented per-relation
/// floor fails with a clean `InvalidArgument` instead of an OOM kill. See
/// docs/GENERATION.md.
class GenerationPipeline {
 public:
  /// `sam` must outlive the pipeline.
  GenerationPipeline(const SamModel* sam, GenerationPipelineOptions options);
  ~GenerationPipeline();
  GenerationPipeline(const GenerationPipeline&) = delete;
  GenerationPipeline& operator=(const GenerationPipeline&) = delete;

  /// Runs (or resumes) the pipeline until the database is published, a stop
  /// is requested, or the step budget is exhausted.
  Result<GenerationRunSummary> Run();

  /// Configuration fingerprint guarding resume (exposed for tests).
  uint64_t Fingerprint() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sam
