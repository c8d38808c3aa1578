#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ar/made.h"
#include "ar/model_schema.h"
#include "common/result.h"

namespace sam {

class ThreadPool;

/// One query of a coalesced estimation call: a compiled query plus its own
/// path budget (callers may mix budgets within one batch).
struct BatchedEstimateItem {
  const CompiledQuery* query = nullptr;
  size_t paths = 0;
};

/// \brief Progressive-sampling cardinality estimator over a trained MADE
/// model (Yang et al.'s progressive sampling with NeuroCard fanout scaling,
/// as used by SAM at inference; §4.1), batched across queries.
///
/// Each query runs `paths` Monte-Carlo trajectories: at each constrained
/// column the in-range probability multiplies the path's selectivity and an
/// in-range value is sampled; fanout columns of relations outside the query
/// divide by the sampled fanout. The estimate is |FOJ| times the mean path
/// selectivity. A call flattens the trajectories of all its queries into one
/// query-major row space, shards it into contiguous `rows_per_block` blocks,
/// and runs each block's full column sweep as one task on the pool: one
/// `CondProbs` call per (block, column) with per-row query-interval masks
/// driving selectivity accumulation and value sampling. A single query is a
/// call with K = 1; with no pool and `paths <= rows_per_block` it is one
/// `CondProbs` per column over `paths` rows.
///
/// ## Determinism contract
///
/// An estimate is a **pure function of (model, seed, paths, query)**: it is
/// bit-identical for every batch composition, ordering, block size, thread
/// count, kernel backend and call history of the instance:
///  * uniforms come from counter streams addressed by (seed, stream key of
///    the query, path, column) — nothing sequential, so a trajectory's draws
///    cannot depend on its neighbours or on earlier calls. The stream key
///    hashes the query's per-column allow masks and fanout flags, so two
///    structurally identical queries share a stream;
///  * the kernel layer guarantees per-row forward results are
///    batch-size-invariant (element-wise vectorisation, fixed accumulator
///    association, no FMA — see src/linalg/kernels.h), so fusing K queries
///    into one forward changes no row;
///  * each query's mean sums its path selectivities sequentially in path
///    order, never via block-partial sums (FP addition is not associative).
///
/// Block scratch (SamplerState + code/weight buffers) is kept per pool
/// worker, not per block, so it stays bounded by the thread count however
/// many paths a call carries; it is retained across calls, so a serve
/// dispatcher estimating every round reuses the same allocations instead of
/// building a fresh estimator and state per request. A call still allocates
/// one double per path for the per-path selectivities.
///
/// Not thread-safe: concurrent Estimate* calls on one instance would race on
/// the block scratch. The intended parallelism is the `pool` argument, which
/// shards one call's blocks across workers.
class BatchedProgressiveEstimator {
 public:
  /// `rows_per_block` bounds each shard's CondProbs batch; it trades
  /// scheduling granularity against per-call overhead and never affects
  /// results.
  explicit BatchedProgressiveEstimator(const MadeModel* model,
                                       uint64_t seed = 4242,
                                       size_t rows_per_block = 256);
  ~BatchedProgressiveEstimator();

  BatchedProgressiveEstimator(const BatchedProgressiveEstimator&) = delete;
  BatchedProgressiveEstimator& operator=(const BatchedProgressiveEstimator&) =
      delete;

  /// Compiles and estimates `queries` with `paths` trajectories each; the
  /// model's sampler weights must be synced. Element i equals the K = 1
  /// call on query i bit for bit. Fails with InvalidArgument when
  /// `paths == 0` (a zero-path mean is 0/0).
  Result<std::vector<double>> EstimateBatch(const std::vector<Query>& queries,
                                            size_t paths,
                                            ThreadPool* pool = nullptr);

  /// Pre-compiled form; items may mix path budgets. Fails with
  /// InvalidArgument on a null query or a zero path budget.
  Result<std::vector<double>> EstimateCompiledBatch(
      const std::vector<BatchedEstimateItem>& items, ThreadPool* pool = nullptr);

  uint64_t seed() const { return seed_; }
  size_t rows_per_block() const { return rows_per_block_; }

 private:
  struct BlockScratch;

  /// Runs rows [r0, r1) of the flattened trajectory space through all
  /// columns using `scratch`, writing per-row selectivities into `flat_sel`
  /// (disjoint ranges per block — safe to run concurrently).
  void RunBlock(const std::vector<BatchedEstimateItem>& items,
                const std::vector<uint64_t>& streams,
                const std::vector<size_t>& row_begin, size_t r0, size_t r1,
                BlockScratch* scratch, double* flat_sel) const;

  const MadeModel* model_;
  uint64_t seed_;
  size_t rows_per_block_;
  /// Scratch slot s serves every block that slot s of a call pulls off the
  /// shared block counter; one slot per concurrently running block (at most
  /// the pool's thread count), grown on demand and reused across calls.
  /// ParallelFor runs each slot index exactly once, so no slot is shared.
  std::vector<std::unique_ptr<BlockScratch>> blocks_;
};

}  // namespace sam
