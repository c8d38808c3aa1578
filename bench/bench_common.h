#pragma once

// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure). Each binary accepts:
//   --scale=small|paper   dataset & workload sizes (default: small, CPU-sized)
//   --seed=<n>            master seed
// Sizes at --scale=paper approach the paper's workload counts; the default
// keeps every binary in the seconds-to-minutes range on a laptop CPU.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ar/model_schema.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "pgm/pgm_model.h"
#include "query/query.h"
#include "sam/sam_model.h"
#include "storage/database.h"

namespace sam::bench {

/// Parsed command line.
struct BenchConfig {
  bool paper_scale = false;
  uint64_t seed = 1;
  /// Optional overrides (0 = use the scale default).
  size_t epochs_override = 0;
  size_t paths_override = 0;
  double lr_override = 0;
  /// Repetitions for timing loops (latency/throughput benches).
  int repeats = 3;
  /// Worker threads for batched evaluation (0 = hardware concurrency).
  size_t threads = 0;
  /// Observability sinks (empty = disabled, the instrumented code stays on
  /// its relaxed-atomic fast path).
  std::string metrics_out;
  std::string trace_out;
};

BenchConfig ParseArgs(int argc, char** argv);

/// Turns tracing/metrics collection on per the config. Call once at the top
/// of a bench main, and `FinishObservability` before exit to flush the files.
void InitObservability(const BenchConfig& config);
void FinishObservability(const BenchConfig& config);

/// \brief RAII bench phase: a `bench/<name>` trace span plus a
/// `bench.phase.<name>_seconds` histogram sample, giving every harness a
/// per-phase breakdown when observability is enabled. No-op otherwise.
class BenchPhase {
 public:
  explicit BenchPhase(std::string name);
  ~BenchPhase();

  BenchPhase(const BenchPhase&) = delete;
  BenchPhase& operator=(const BenchPhase&) = delete;

 private:
  std::string name_;
  obs::TraceSpan span_;
  Stopwatch watch_;
};

/// \brief Plain timing loop for the micro benches (`bench_micro_ar`,
/// `bench_checkpoint_io`). Grows a batch of `op` calls until it lasts about
/// 50 ms, times `config.repeats` such batches and prints one line: the
/// median time per call, then items/s and MB/s when the per-call counts are
/// non-zero.
void RunMicro(const BenchConfig& config, const std::string& name,
              const std::function<void()>& op, double items_per_op = 0,
              double bytes_per_op = 0);

/// Prints a micro-bench line for a case that cannot run here.
void SkipMicro(const std::string& name, const std::string& why);

/// Keeps the compiler from discarding a value a timed call computed.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Dataset sizes per scale.
struct DatasetSizes {
  size_t census_rows;
  size_t dmv_rows;
  size_t imdb_titles;
  size_t train_queries_single;  ///< Per single-relation dataset.
  size_t train_queries_multi;   ///< IMDB-like.
  size_t test_queries;
};

DatasetSizes SizesFor(const BenchConfig& config);

/// Catalog hints (numeric columns + bounds) per dataset.
SchemaHints CensusHints();
SchemaHints DmvHints();
SchemaHints ImdbHints();

/// Default SAM options tuned per scale.
SamOptions DefaultSamOptions(const BenchConfig& config);

/// SAM options for the multi-relation (IMDB) experiments: the fanout and
/// indicator virtual columns need more optimisation to converge, so the
/// defaults use more epochs and sample paths than the single-relation runs.
SamOptions ImdbSamOptions(const BenchConfig& config);

/// SAM's generated database, or — with `group_and_merge` off — the paper's
/// "SAM w/o Group-and-Merge" baseline (`GenerateViewBaseline`) over
/// `foj_samples` model draws seeded by `generation_seed`.
Result<Database> GenerateSamVariant(const SamModel& sam, bool group_and_merge);

/// Computes the view-size metadata PGM needs (unfiltered join sizes for every
/// view in `workload`).
Result<std::map<std::string, int64_t>> ViewSizesFor(const Executor& executor,
                                                    const Workload& workload);

/// Prints a percentile table row in the paper's format.
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::string& model, const MetricSummary& s, bool with_max);
void PrintKv(const std::string& key, const std::string& value);

/// Q-Error summary of `workload` re-executed on `generated`.
Result<MetricSummary> EvaluateFidelity(const Database& generated,
                                       const Workload& workload);

/// A dataset with its executor and a labelled training workload. The
/// database is heap-allocated so the executor's pointer stays valid when the
/// setup struct moves.
struct SingleRelSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  std::string table;
  SchemaHints hints;
};

Result<SingleRelSetup> SetupCensus(const BenchConfig& config, size_t n_queries,
                                   double coverage_ratio = 1.0);
Result<SingleRelSetup> SetupDmv(const BenchConfig& config, size_t n_queries);

struct MultiRelSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  int64_t foj_size = 0;
  SchemaHints hints;
};

Result<MultiRelSetup> SetupImdb(const BenchConfig& config, size_t n_queries);

/// Uniform random sample of `n` queries (for evaluating large input
/// workloads, mirroring the paper's 1,000-query sample on IMDB).
Workload SampleQueries(const Workload& w, size_t n, uint64_t seed);

}  // namespace sam::bench
