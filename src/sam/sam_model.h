#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ar/dps_trainer.h"
#include "ar/made.h"
#include "ar/model_schema.h"
#include "common/random.h"
#include "common/result.h"
#include "storage/database.h"

namespace sam {

/// \brief End-to-end configuration of SAM.
struct SamOptions {
  MadeModel::Options model;
  DpsOptions training;

  /// Batch size for sampling during generation (Alg 1/2 are embarrassingly
  /// parallel; batching amortises the model forward passes).
  size_t generation_batch = 1024;
  /// Number of full-outer-join samples k drawn for multi-relation generation
  /// (Alg 2). The paper samples ~1/20,000 of the FOJ.
  size_t foj_samples = 100000;
  /// Force content/fanout columns of an absent relation (indicator 0) to
  /// NULL/1 while sampling. Matches FOJ semantics exactly, but overriding a
  /// sampled code conditions the remaining columns on inputs the model never
  /// produces itself; the ablation bench shows this inflates tail errors on
  /// imperfectly trained models, so the default trusts the model (a
  /// well-trained model emits NULL/1 for absent relations on its own).
  bool enforce_null_consistency = false;
  /// Width all of `Generate` asks of the shared worker set
  /// (`SharedThreadPool()`); 0 = the set's width, 1 = fully serial.
  /// `SampleFoj` (Alg 1 is "embarrassingly parallel", §4.2) runs a
  /// `ParallelFor` of W workers, worker w sampling batches w, w+W, ... with
  /// one reused sampler state; multi-relation `Generate` passes it to the
  /// generation pipeline as `GenerationPipelineOptions::threads`. Every
  /// sample batch derives its RNG from `generation_seed` and its batch
  /// index — in the sequential path too — so generation is bit-identical
  /// for every thread count.
  size_t generation_threads = 0;
  uint64_t generation_seed = 999;
  /// Budget for the generation pipeline's data-proportional structures
  /// (resident code columns, weight arrays, spill buffers, group tables),
  /// which multi-relation `SamModel::Generate` runs too. The pipeline spills
  /// harder as the cap tightens and fails with a clean error — never an OOM
  /// kill — when the irreducible per-relation floor does not fit
  /// (docs/GENERATION.md). Single-relation `Generate` (Alg 1) ignores it.
  int64_t memory_cap_bytes = 256ll << 20;
  /// Durable pipeline steps between generation checkpoints.
  int64_t generation_checkpoint_every = 8;
};

/// Validates the generation-side knobs (the training side is covered by
/// `ValidateDpsOptions`). `SamModel::Create` calls this, so a zero
/// `generation_batch` fails fast instead of hanging `SampleFoj` in an
/// infinite loop.
Status ValidateSamOptions(const SamOptions& options);

/// `Internal` error of a relation that the sampled FOJ tuples leave without
/// mass. `what` names the failure and what was counted; the message adds
/// the usual remedy, since a briefly trained model or a small FOJ sample
/// is what starves a relation.
Status DegenerateSampleError(const std::string& what);

/// \brief SAM: a supervised autoregressive database generator (the paper's
/// headline system).
///
/// Learning stage: an AR model of the (full-outer-join) data distribution is
/// trained from (query, cardinality) pairs with differentiable progressive
/// sampling. Generation stage: FOJ tuples are sampled from the model,
/// de-biased per base relation with inverse probability weighting, scaled to
/// the true relation sizes, and join keys are assigned with Group-and-Merge.
class SamModel {
 public:
  /// Builds an *untrained* SAM for `db`'s schema metadata (table/column
  /// definitions, table sizes, join graph — never cell data). `train` only
  /// supplies the predicate literals that define column domains. Useful for
  /// loading saved weights and for unit tests.
  static Result<std::unique_ptr<SamModel>> Create(const Database& db,
                                                  const Workload& train,
                                                  const SchemaHints& hints,
                                                  int64_t foj_size,
                                                  const SamOptions& options);

  /// Builds and trains SAM from the labelled workload with DPS.
  /// `foj_size` is the catalog full-outer-join size (|T| for one relation).
  static Result<std::unique_ptr<SamModel>> Train(
      const Database& db, const Workload& train, const SchemaHints& hints,
      int64_t foj_size, const SamOptions& options,
      const DpsCallback& callback = {});

  /// Generates a synthetic database: Alg 1 in RAM for single-relation
  /// schemas, else Alg 2 + Alg 3 via `GenerationPipeline` in a private
  /// temporary directory (bounded by `memory_cap_bytes`). Either way it
  /// equals `LoadDatabase` of what the pipeline publishes, cell for cell.
  Result<Database> Generate() const;

  const ModelSchema& schema() const { return schema_; }
  MadeModel* model() { return model_.get(); }
  const MadeModel* model() const { return model_.get(); }
  const SamOptions& options() const { return options_; }
  const std::vector<DpsEpochStats>& training_stats() const { return stats_; }

  /// Original column order per table, to lay out generated tables.
  struct TableLayout {
    std::string name;
    std::vector<std::string> column_names;
    std::vector<ColumnType> column_types;
    std::string pk;                 ///< Empty when none.
    std::vector<ForeignKey> fks;
    /// Per column: its model content column; -1 for a key column.
    std::vector<int> model_columns;
  };
  /// One layout per relation, in the source database's table order.
  const std::vector<TableLayout>& layouts() const { return layouts_; }

  /// \brief One sampled FOJ tuple set as raw model codes (k x num_columns),
  /// exposed for tests and the ablation baseline.
  struct FojSample {
    std::vector<std::vector<int32_t>> codes;  ///< [column][sample].
    size_t count = 0;
  };

  /// Samples `k` FOJ tuples from the model (step 1 of Alg 2), in batches
  /// seeded `FojBatchSeed(base_seed, batch)`.
  FojSample SampleFoj(size_t k, uint64_t base_seed) const;

  /// RNG seed of sample batch `batch_index` of a run with base seed
  /// `base_seed`. `SampleFoj` derives every batch seed through this
  /// function, so external batch-at-a-time samplers (the generation
  /// pipeline) draw bit-identical batches.
  static uint64_t FojBatchSeed(uint64_t base_seed, size_t batch_index) {
    return base_seed ^ (0x9e3779b97f4a7c15ULL * (batch_index + 1));
  }

  /// Base seed of a generation run: every sample batch and decode stream of
  /// `Generate` and of the generation pipeline derives from it.
  uint64_t GenerationBaseSeed() const {
    return Rng(options_.generation_seed).engine()();
  }

  /// Progressive-samples generation batch `batch_index` (`rows` FOJ tuples,
  /// batch RNG `FojBatchSeed(base_seed, batch_index)`) into
  /// `out->codes[*][start, start + rows)`, which must already be sized. The
  /// codes are bit-identical to rows [batch_index * generation_batch, ...
  /// + rows) of a `SampleFoj` call with the same `base_seed`. `state` is
  /// caller-owned sampler scratch from `model()->InitState(n)` with
  /// n >= rows, re-entered via ResetState; a parallel caller gives each
  /// worker its own. The one batch sampler of
  /// both `SampleFoj` and the generation pipeline's sample steps.
  void SampleFojBatchInto(uint64_t base_seed, size_t batch_index,
                          FojSample* out, size_t start, size_t rows,
                          MadeModel::SamplerState* state) const;

  /// Alg 1's one decoder, of single-relation `Generate` and the pipeline's
  /// sample steps: decodes rows [start, start + rows) of `foj`, sample batch
  /// `batch_index` of the run, into `layouts()[0]`'s column order with the
  /// batch's stream DeriveSeed(base_seed, "decode|<T>|batch|<b>"), and
  /// moves each row into `sink`. Returns the first error of `sink`.
  Status DecodeSingleRelationBatch(
      uint64_t base_seed, size_t batch_index, const FojSample& foj,
      size_t start, size_t rows,
      const std::function<Status(std::vector<Value>&&)>& sink) const;

  /// Inverse-probability weight of relation `rule` for sample `s` (Eq. 4):
  /// the reciprocal of the product of its `weight_terms`, where an absent
  /// relation contributes fanout 1 (§4.3.1); 0 when `rule`'s own relation is
  /// absent (indicator 0).
  double InverseProbabilityWeight(const FojSample& foj, const RelationRule& rule,
                                  size_t s) const;
  double InverseProbabilityWeight(const FojSample& foj, const std::string& table,
                                  size_t s) const {
    return InverseProbabilityWeight(foj, schema_.relation(table), s);
  }

  /// Scales relation `rule`'s weights over all of a run's FOJ samples to sum
  /// to |T| (Alg 2 step 2); a `DegenerateSampleError` when none is positive.
  /// The one scaling step of the generation pipeline and the view baseline.
  Status ScaleToRelationSize(const RelationRule& rule,
                             std::vector<double>* w) const;

  /// `Generate` through the pipeline with the given FOJ samples in place of
  /// model draws, so tests and benches can inject exact FOJ tuples. Decoding
  /// still derives its RNGs from `generation_seed`.
  Result<Database> GenerateFromFoj(const FojSample& foj) const;

 private:
  SamModel(ModelSchema schema, SamOptions options)
      : schema_(std::move(schema)), options_(options) {}

  ModelSchema schema_;
  SamOptions options_;
  std::unique_ptr<MadeModel> model_;
  std::vector<DpsEpochStats> stats_;
  std::vector<TableLayout> layouts_;
};

}  // namespace sam
