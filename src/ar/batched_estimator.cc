#include "ar/batched_estimator.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/fnv1a.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

namespace sam {
namespace {

/// RNG-stream key of a compiled query: FNV-1a over its per-column allow
/// masks and fanout-scaling flags (the cardinality label is excluded, like
/// the serve plan-cache key). Batch position, call order and coalescing
/// never enter the hash.
uint64_t ProgressiveStreamKey(const CompiledQuery& cq) {
  Fnv1a h;
  for (const auto& allow : cq.allow) {
    // Length-prefix each mask so (empty, 0b1) and (0b1, empty) differ.
    h.MixU64(allow.size());
    h.Mix(allow.data(), allow.size());
  }
  h.Mix(cq.scale_fanout.data(), cq.scale_fanout.size());
  return h.hash();
}

/// Advances one Monte-Carlo trajectory through column `mc`: accumulates the
/// in-range probability mass into `*sel` when the column is constrained
/// (`allow` non-empty), samples the next code from the (masked) probability
/// row `pr` using the uniform `u`, and applies NeuroCard fanout inverse
/// scaling when `scale_fanout` (a non-positive fanout kills the path and
/// counts in `dead_fanout`). `weights` must hold `mc.domain_size` doubles
/// when the column is constrained (unused otherwise). Returns the sampled
/// code.
int32_t SampleTrajectoryStep(const ModelColumn& mc,
                             const std::vector<uint8_t>& allow,
                             bool scale_fanout, const double* pr, double u,
                             double* weights, double* sel,
                             obs::Counter* dead_fanout) {
  int64_t pick;
  if (!allow.empty()) {
    // One pass builds the masked sampling weights while accumulating the
    // in-range mass; if that mass is zero the path is dead (selectivity 0)
    // and any in-range value keeps the trajectory well-defined.
    double p_in = 0.0;
    bool any = false;
    for (size_t j = 0; j < mc.domain_size; ++j) {
      if (allow[j]) {
        p_in += pr[j];
        weights[j] = pr[j];
        any = any || pr[j] > 0.0;
      } else {
        weights[j] = 0.0;
      }
    }
    *sel *= p_in;
    if (!any) {
      for (size_t j = 0; j < mc.domain_size; ++j) {
        weights[j] = allow[j] ? 1.0 : 0.0;
      }
    }
    pick = CategoricalFromUniform(weights, mc.domain_size, u);
    if (pick < 0) pick = 0;  // Fully-empty mask: arbitrary placeholder.
  } else {
    // Unconstrained: sample straight from the probability row.
    pick = CategoricalFromUniform(pr, mc.domain_size, u);
    if (pick < 0) pick = 0;
  }
  const int32_t code = static_cast<int32_t>(pick);
  if (mc.kind == ModelColumnKind::kFanout && scale_fanout) {
    // Guard the division: FanoutValueOf is code+1 > 0 for every valid code
    // today, but a corrupt or future re-mapped code must not turn the whole
    // estimate into inf/NaN — kill just this path and count it.
    const int64_t fv = mc.FanoutValueOf(code);
    if (fv <= 0) {
      dead_fanout->Add(1);
      *sel = 0.0;
    } else {
      *sel /= static_cast<double>(fv);
    }
  }
  return code;
}

}  // namespace

struct BatchedProgressiveEstimator::BlockScratch {
  MadeModel::SamplerState state;
  std::vector<int32_t> codes;
  std::vector<double> weights;
};

BatchedProgressiveEstimator::BatchedProgressiveEstimator(const MadeModel* model,
                                                         uint64_t seed,
                                                         size_t rows_per_block)
    : model_(model),
      seed_(seed),
      rows_per_block_(std::max<size_t>(1, rows_per_block)) {}

BatchedProgressiveEstimator::~BatchedProgressiveEstimator() = default;

Result<std::vector<double>> BatchedProgressiveEstimator::EstimateBatch(
    const std::vector<Query>& queries, size_t paths, ThreadPool* pool) {
  std::vector<CompiledQuery> compiled;
  compiled.reserve(queries.size());
  for (const Query& q : queries) {
    SAM_ASSIGN_OR_RETURN(CompiledQuery cq, model_->schema().Compile(q));
    compiled.push_back(std::move(cq));
  }
  std::vector<BatchedEstimateItem> items(compiled.size());
  for (size_t i = 0; i < compiled.size(); ++i) {
    items[i] = {&compiled[i], paths};
  }
  return EstimateCompiledBatch(items, pool);
}

Result<std::vector<double>> BatchedProgressiveEstimator::EstimateCompiledBatch(
    const std::vector<BatchedEstimateItem>& items, ThreadPool* pool) {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("sam.estimator.queries");
  static obs::Counter* paths_run =
      obs::MetricsRegistry::Global().GetCounter("sam.estimator.paths");
  static obs::Counter* batches =
      obs::MetricsRegistry::Global().GetCounter("sam.estimator.batches");
  for (const BatchedEstimateItem& item : items) {
    if (item.query == nullptr) {
      return Status::InvalidArgument("null query in estimation batch");
    }
    if (item.paths == 0) {
      // A zero-path mean is 0/0.
      return Status::InvalidArgument(
          "progressive estimation needs at least one sample path");
    }
  }
  std::vector<double> estimates(items.size(), 0.0);
  if (items.empty()) return estimates;

  // Flatten into a query-major row space: item i owns rows
  // [row_begin[i], row_begin[i+1]), one row per trajectory.
  std::vector<size_t> row_begin(items.size() + 1, 0);
  std::vector<uint64_t> streams(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].paths > SIZE_MAX - row_begin[i]) {
      return Status::InvalidArgument(
          "estimation batch asks for more sample paths than fit in size_t");
    }
    row_begin[i + 1] = row_begin[i] + items[i].paths;
    streams[i] = ProgressiveStreamKey(*items[i].query);
  }
  const size_t total_rows = row_begin.back();
  queries->Add(items.size());
  paths_run->Add(total_rows);
  batches->Add(1);

  const size_t num_blocks = (total_rows + rows_per_block_ - 1) / rows_per_block_;
  // One scratch per concurrently running block, not per block: each slot
  // pulls blocks off a shared counter, so scratch memory is bounded by the
  // pool size however many rows the call carries.
  const size_t slots = std::max<size_t>(
      1, pool != nullptr ? std::min(num_blocks, pool->num_threads()) : 1);
  while (blocks_.size() < slots) {
    blocks_.push_back(std::make_unique<BlockScratch>());
  }

  std::vector<double> flat_sel(total_rows, 1.0);
  std::atomic<size_t> next_block{0};
  auto run_slot = [&](size_t slot) {
    for (size_t b = next_block.fetch_add(1); b < num_blocks;
         b = next_block.fetch_add(1)) {
      const size_t r0 = b * rows_per_block_;
      const size_t r1 = std::min(total_rows, r0 + rows_per_block_);
      RunBlock(items, streams, row_begin, r0, r1, blocks_[slot].get(),
               flat_sel.data());
    }
  };
  if (slots > 1) {
    pool->ParallelFor(slots, run_slot);
  } else {
    run_slot(0);
  }

  // Per-query mean over its paths in path order, independent of how rows
  // were blocked.
  const double foj = static_cast<double>(model_->schema().foj_size());
  for (size_t i = 0; i < items.size(); ++i) {
    double mean_sel = 0.0;
    for (size_t r = row_begin[i]; r < row_begin[i + 1]; ++r) {
      mean_sel += flat_sel[r];
    }
    mean_sel /= static_cast<double>(items[i].paths);
    estimates[i] = mean_sel * foj;
  }
  return estimates;
}

void BatchedProgressiveEstimator::RunBlock(
    const std::vector<BatchedEstimateItem>& items,
    const std::vector<uint64_t>& streams, const std::vector<size_t>& row_begin,
    size_t r0, size_t r1, BlockScratch* scratch, double* flat_sel) const {
  static obs::Counter* dead_fanout = obs::MetricsRegistry::Global().GetCounter(
      "sam.estimator.dead_fanout_paths");
  const ModelSchema& schema = model_->schema();
  const size_t n_cols = schema.num_columns();
  const size_t rows = r1 - r0;
  model_->ResetState(&scratch->state, rows);
  scratch->codes.resize(rows);
  // Index of the item owning the block's first row; blocks are contiguous in
  // the flattened space, so the per-row lookup below is a forward scan.
  const size_t first_item = static_cast<size_t>(
      std::upper_bound(row_begin.begin(), row_begin.end(), r0) -
      row_begin.begin() - 1);

  for (size_t col = 0; col < n_cols; ++col) {
    const ModelColumn& mc = schema.columns()[col];
    const Matrix& probs = model_->CondProbs(scratch->state, col);
    if (scratch->weights.size() < mc.domain_size) {
      scratch->weights.resize(mc.domain_size);
    }
    size_t item = first_item;
    for (size_t r = 0; r < rows; ++r) {
      const size_t global = r0 + r;
      while (global >= row_begin[item + 1]) ++item;
      const CompiledQuery& cq = *items[item].query;
      const size_t path = global - row_begin[item];
      const double u = CounterUniform(seed_, streams[item], path, col);
      scratch->codes[r] = SampleTrajectoryStep(
          mc, cq.allow[col], cq.scale_fanout[col] != 0, probs.row(r), u,
          scratch->weights.data(), &flat_sel[global], dead_fanout);
    }
    model_->Observe(&scratch->state, col, scratch->codes);
  }
}

}  // namespace sam
