#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/compiled_query.h"
#include "query/query.h"
#include "storage/database.h"

namespace sam {

class ThreadPool;

/// \brief Cardinality and latency evaluation over a database.
///
/// The evaluator serves three roles in the reproduction:
///  1. label the training/test workloads with true cardinalities,
///  2. evaluate generated databases (Q-Error of constraints, §5.3/5.4),
///  3. emulate the paper's PostgreSQL latency experiment (§5.4, Tables 8/9)
///     with a fresh-build hash-join pipeline per query.
///
/// Construction decodes every FK/PK join column once into flat dense-slot
/// arrays; query evaluation is then tight loops over dictionary codes and
/// those arrays — no hash probes and no per-row Value materialisation. The
/// batch API shards a whole workload across a thread pool; results are
/// bit-identical to sequential evaluation for any thread count because each
/// query's evaluation is independent and deterministic.
class Executor {
 public:
  /// Builds the join-edge indexes for fast repeated cardinality evaluation.
  /// The database must outlive the executor.
  static Result<std::unique_ptr<Executor>> Create(const Database* db);

  /// True cardinality of `q`. Multi-relation queries must form a connected
  /// subtree of the join graph. Compiles `q` and evaluates with a local
  /// scratch; for repeated evaluation prefer the compiled overload or
  /// ParallelCardinality.
  Result<int64_t> Cardinality(const Query& q) const;

  /// True cardinality of a pre-compiled query using caller-owned buffers.
  /// Thread-safe: concurrent calls must use distinct `scratch` objects.
  Result<int64_t> Cardinality(const engine::CompiledQuery& cq,
                              engine::EvalScratch* scratch) const;

  /// \brief Cardinalities of a whole workload, sharded across a thread pool.
  ///
  /// `num_threads` = 0 uses hardware concurrency. Each shard compiles and
  /// evaluates its queries with its own scratch buffers, so the result is
  /// bit-identical to calling Cardinality(q) per query, for every thread
  /// count. Fails with the first per-query error encountered.
  Result<std::vector<int64_t>> ParallelCardinality(const Workload& workload,
                                                   size_t num_threads = 0) const;

  /// \brief Cardinalities of pre-compiled queries, sharded across a
  /// caller-owned persistent pool (`pool == nullptr` evaluates sequentially).
  ///
  /// This is the serve-daemon hot path: plans come from a cache, so neither
  /// compilation nor pool construction is paid per call. Bit-identical to
  /// calling Cardinality(*queries[i], &scratch) per query, for every thread
  /// count. Null plan pointers are rejected with InvalidArgument.
  Result<std::vector<int64_t>> ParallelCardinalityCompiled(
      const std::vector<const engine::CompiledQuery*>& queries,
      ThreadPool* pool) const;

  /// Executes `q` with per-query compilation (no cached plan, as a planner
  /// would) and returns wall-clock seconds; used for the
  /// performance-deviation metric.
  Result<double> MeasureLatencySeconds(const Query& q) const;

  /// Size of the full outer join of all relations (computed analytically,
  /// never materialised).
  int64_t FullOuterJoinSize() const;

  /// \brief Materialises the full outer join as a table with namespaced
  /// content columns ("T.col"), plus one indicator column "I(T)" per FK
  /// relation and one fanout column "F(T.key)" per FK (§4.1, Figure 3b).
  ///
  /// Intended for tests and tiny databases; fails when the FOJ exceeds
  /// `max_rows`.
  Result<Table> MaterializeFullOuterJoin(size_t max_rows = 1 << 20) const;

  const JoinGraph& join_graph() const { return graph_; }

 private:
  explicit Executor(const Database* db) : db_(db) {}
  Status Init();

  /// Bottom-up per-row weights for the (sub)tree of relations in `rels`,
  /// written to `scratch->weights[table]`. `scratch->sat` gives per-table
  /// predicate bitmaps (absent = unfiltered). When `outer` is true,
  /// childless matches count as 1 (full outer join semantics); inner join
  /// otherwise.
  Status SubtreeWeights(const std::string& table,
                        const std::vector<std::string>& rels, bool outer,
                        engine::EvalScratch* scratch) const;

  const Database* db_;
  JoinGraph graph_;

  /// \brief Per-edge join columns decoded once into flat arrays (keyed by the
  /// child relation; tree join graphs give every child exactly one parent).
  ///
  /// Key values are mapped to dense slots in child-row order, so query-time
  /// aggregation is `agg[child_slots[r]] += w[r]` and the parent probe is
  /// `agg[parent_slots[r]]` — no hashing on the hot path. Slot -1 marks a
  /// NULL key (child side) or a key with no child occurrence (parent side).
  struct EdgeArrays {
    std::vector<int32_t> child_slots;   ///< Per child row.
    std::vector<int32_t> parent_slots;  ///< Per parent row.
    size_t num_slots = 0;
  };
  std::unordered_map<std::string, EdgeArrays> edge_arrays_;
};

}  // namespace sam
