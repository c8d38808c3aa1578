#include "sam/sam_model.h"

#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/generation_pipeline.h"
#include "storage/schema_io.h"

namespace sam {

Status ValidateSamOptions(const SamOptions& options) {
  if (options.generation_batch == 0) {
    return Status::InvalidArgument(
        "SamOptions.generation_batch must be positive");
  }
  if (options.foj_samples == 0) {
    return Status::InvalidArgument("SamOptions.foj_samples must be positive");
  }
  if (options.memory_cap_bytes <= 0) {
    return Status::InvalidArgument(
        "SamOptions.memory_cap_bytes must be positive");
  }
  if (options.generation_checkpoint_every <= 0) {
    return Status::InvalidArgument(
        "SamOptions.generation_checkpoint_every must be positive");
  }
  return Status::OK();
}

Status DegenerateSampleError(const std::string& what) {
  return Status::Internal(what +
                          "; train the model longer or draw more FOJ samples");
}

Result<std::unique_ptr<SamModel>> SamModel::Create(const Database& db,
                                                   const Workload& train,
                                                   const SchemaHints& hints,
                                                   int64_t foj_size,
                                                   const SamOptions& options) {
  SAM_RETURN_NOT_OK(ValidateSamOptions(options));
  SAM_ASSIGN_OR_RETURN(ModelSchema schema,
                       ModelSchema::Build(db, train, hints, foj_size));
  auto sam = std::unique_ptr<SamModel>(new SamModel(std::move(schema), options));

  // Record the physical layout of every relation (column names/types and key
  // metadata) so generated tables mirror the originals.
  for (const auto& t : db.tables()) {
    TableLayout layout;
    layout.name = t.name();
    for (const auto& c : t.columns()) {
      layout.column_names.push_back(c.name());
      layout.column_types.push_back(c.type());
      layout.model_columns.push_back(
          t.IsKeyColumn(c.name())
              ? -1
              : sam->schema_.FindColumn(ModelColumnKind::kContent, t.name(),
                                        c.name()));
    }
    if (t.primary_key()) layout.pk = *t.primary_key();
    layout.fks = t.foreign_keys();
    sam->layouts_.push_back(std::move(layout));
  }

  sam->model_ = std::make_unique<MadeModel>(&sam->schema_, options.model);
  return sam;
}

Result<std::unique_ptr<SamModel>> SamModel::Train(
    const Database& db, const Workload& train, const SchemaHints& hints,
    int64_t foj_size, const SamOptions& options, const DpsCallback& callback) {
  SAM_ASSIGN_OR_RETURN(std::unique_ptr<SamModel> sam,
                       Create(db, train, hints, foj_size, options));
  SAM_ASSIGN_OR_RETURN(sam->stats_,
                       TrainDps(sam->model_.get(), train, options.training,
                                callback));
  return sam;
}

void SamModel::SampleFojBatchInto(uint64_t base_seed, size_t batch_index,
                                  FojSample* out, size_t start, size_t rows,
                                  MadeModel::SamplerState* state) const {
  obs::TraceSpan batch_span("generate/foj_batch");
  static obs::Counter* foj_samples =
      obs::MetricsRegistry::Global().GetCounter("sam.foj.samples");
  foj_samples->Add(rows);
  Rng batch_rng(FojBatchSeed(base_seed, batch_index));
  // Codes are sampled straight into `out`, and every sampling buffer lives
  // in the caller's `state`: a buffer allocated here, on a sampler worker,
  // would land in that thread's malloc arena (see MadeModel::InitState).
  model_->ResetState(state, rows);
  for (size_t col = 0; col < schema_.num_columns(); ++col) {
    const ModelColumn& mc = schema_.columns()[col];
    const Matrix& probs = model_->CondProbs(*state, col);
    int32_t* codes = out->codes[col].data() + start;
    for (size_t r = 0; r < rows; ++r) {
      // Sample straight from the probability row; the old per-row copy into
      // a scratch vector dominated the sampling profile on wide columns.
      int64_t pick = batch_rng.Categorical(probs.row(r), mc.domain_size);
      if (pick < 0) pick = 0;
      codes[r] = static_cast<int32_t>(pick);
    }
    if (options_.enforce_null_consistency &&
        mc.kind != ModelColumnKind::kIndicator && mc.indicator >= 0) {
      // ModelSchema::Build orders a relation's indicator before its content
      // and fanout columns, so it is already sampled here.
      const int32_t* present =
          out->codes[static_cast<size_t>(mc.indicator)].data() + start;
      for (size_t r = 0; r < rows; ++r) {
        if (present[r] == 0) codes[r] = 0;  // NULL token / fanout value 1.
      }
    }
    model_->Observe(state, col, {codes, rows});
  }
}

SamModel::FojSample SamModel::SampleFoj(size_t k, uint64_t base_seed) const {
  obs::TraceSpan foj_span("generate/sample_foj");
  // `generation_batch` is validated positive in Create, but SampleFoj is
  // callable on its own; a zero batch would loop forever below.
  const size_t gb = options_.generation_batch;
  SAM_CHECK(gb > 0) << "generation_batch must be positive";
  FojSample out;
  out.count = k;
  out.codes.assign(schema_.num_columns(), std::vector<int32_t>(k));

  // Sampling is embarrassingly parallel (§4.2): batches are independent, and
  // every batch derives its RNG from the base seed by batch index (via
  // FojBatchSeed) — in the sequential path too — so the sample is
  // bit-identical for every generation_threads value. The model is only
  // read.
  const size_t batches = (k + gb - 1) / gb;
  if (batches == 0) return out;
  const size_t threads =
      options_.generation_threads > 0
          ? options_.generation_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::min(threads, batches);
  static obs::Gauge* parallelism = obs::MetricsRegistry::Global().GetGauge(
      "sam.gen.sample_parallelism");
  parallelism->Set(static_cast<double>(workers));

  // One sampler state per worker, allocated and pre-sized here on the
  // calling thread and re-entered for every batch of its stride. Scratch
  // first allocated on a worker would land in that thread's malloc arena,
  // which keeps it after the batch frees it (docs/PERFORMANCE.md).
  std::vector<MadeModel::SamplerState> states;
  states.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    states.push_back(model_->InitState(std::min(gb, k)));
  }
  auto run_worker = [&](size_t w) {
    for (size_t i = w; i < batches; i += workers) {
      const size_t start = i * gb;
      SampleFojBatchInto(base_seed, i, &out, start, std::min(gb, k - start),
                         &states[w]);
    }
  };
  if (workers == 1) {
    run_worker(0);
  } else {
    ThreadPool pool(workers);
    pool.ParallelFor(workers, run_worker);
  }
  return out;
}

double SamModel::InverseProbabilityWeight(const FojSample& foj,
                                          const RelationRule& rule,
                                          size_t s) const {
  // Absent relations produce no base-relation sample.
  if (rule.indicator >= 0 &&
      foj.codes[static_cast<size_t>(rule.indicator)][s] == 0) {
    return 0.0;
  }
  double denom = 1.0;
  for (const RelationRule::FanoutTerm& term : rule.weight_terms) {
    // Per §4.3.1: NULL relations contribute fanout 1.
    if (foj.codes[term.gate][s] == 0) continue;
    denom *= static_cast<double>(
        schema_.columns()[term.fanout].FanoutValueOf(foj.codes[term.fanout][s]));
  }
  return 1.0 / denom;
}

Status SamModel::ScaleToRelationSize(const RelationRule& rule,
                                     std::vector<double>* w) const {
  double sum = 0.0;
  for (double v : *w) sum += v;
  if (sum <= 0.0) {
    const auto present =
        std::count_if(w->begin(), w->end(), [](double v) { return v > 0.0; });
    return DegenerateSampleError(
        "no usable samples for relation '" + rule.name + "': " +
        std::to_string(present) + " of " + std::to_string(w->size()) +
        " FOJ samples have it present");
  }
  const double scale = static_cast<double>(schema_.table_size(rule.name)) / sum;
  for (double& v : *w) v *= scale;
  return Status::OK();
}

namespace {

/// Runs `GenerationPipeline` (with `foj` injected when non-null) into a
/// private temporary directory, removed on every return path, and loads the
/// published database.
Result<Database> GenerateThroughPipeline(const SamModel* sam,
                                         const SamModel::FojSample* foj) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path tmp = fs::temp_directory_path(ec);
  if (ec) {
    return Status::IOError("no temporary directory for generation: " +
                           ec.message());
  }
  std::string dir = (tmp / "samgen-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    return Status::IOError("cannot create a private generation directory '" +
                           dir + "': " + std::strerror(errno));
  }
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{dir};

  GenerationPipelineOptions popts;
  popts.out_dir = dir + "/out";
  popts.work_dir = dir + "/work";
  popts.injected_foj = foj;
  popts.threads = sam->options().generation_threads;
  SAM_RETURN_NOT_OK(GenerationPipeline(sam, popts).Run().status());
  return LoadDatabase(popts.out_dir);
}

}  // namespace

Result<Database> SamModel::GenerateFromFoj(const FojSample& foj) const {
  return GenerateThroughPipeline(this, &foj);
}

Status SamModel::DecodeSingleRelationBatch(
    uint64_t base_seed, size_t batch_index, const FojSample& foj,
    size_t start, size_t rows,
    const std::function<Status(std::vector<Value>&&)>& sink) const {
  SAM_CHECK_EQ(layouts_.size(), 1u);
  const TableLayout& layout = layouts_[0];
  std::vector<const ModelColumn*> cols;
  std::vector<const int32_t*> codes;
  for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
    const int col = layout.model_columns[ci];
    if (col < 0) {
      return Status::Internal("generated column missing from model: " +
                              layout.column_names[ci]);
    }
    cols.push_back(&schema_.columns()[static_cast<size_t>(col)]);
    codes.push_back(foj.codes[static_cast<size_t>(col)].data() + start);
  }
  Rng rng(DeriveSeed(base_seed, "decode|" + layout.name + "|batch|" +
                                    std::to_string(batch_index)));
  std::vector<Value> row;
  for (size_t r = 0; r < rows; ++r) {
    row.resize(cols.size());  // Refills a row the sink moved away.
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c] = schema_.DecodeContent(*cols[c], codes[c][r], &rng);
    }
    SAM_RETURN_NOT_OK(sink(std::move(row)));
  }
  return Status::OK();
}

Result<Database> SamModel::Generate() const {
  if (schema_.multi_relation()) return GenerateThroughPipeline(this, nullptr);
  // Algorithm 1: |T| samples from the AR model, sampled in parallel and
  // decoded batch by batch exactly as the pipeline's sample steps do.
  const TableLayout& layout = layouts_[0];
  const size_t n = static_cast<size_t>(schema_.table_size(layout.name));
  const uint64_t base_seed = GenerationBaseSeed();
  const FojSample sample = SampleFoj(n, base_seed);

  // Cells are dictionary-coded as rows arrive, so only codes and distinct
  // values are held, never a whole column of Values.
  std::vector<ColumnBuilder> columns;
  for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
    columns.emplace_back(layout.column_names[ci], layout.column_types[ci]);
    columns.back().Reserve(n);
  }
  auto collect = [&](std::vector<Value>&& row) {
    for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
    return Status::OK();
  };
  const size_t gb = options_.generation_batch;
  for (size_t b = 0; b * gb < n; ++b) {
    SAM_RETURN_NOT_OK(DecodeSingleRelationBatch(
        base_seed, b, sample, b * gb, std::min(gb, n - b * gb), collect));
  }

  Table table(layout.name);
  for (ColumnBuilder& column : columns) {
    SAM_RETURN_NOT_OK(table.AddColumn(std::move(column).Finish()));
  }
  Database db;
  SAM_RETURN_NOT_OK(db.AddTable(std::move(table)));
  return db;
}

}  // namespace sam
