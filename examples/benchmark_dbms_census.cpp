// DBMS benchmarking scenario (paper §1, first use case): before a customer
// migrates, the provider wants to compare engine configurations on a
// database *like* the customer's. This example trains SAM once, persists the
// model to disk, reloads it (as a provider service would), generates two
// candidate synthetic databases at different scale factors, and compares
// their query latency profiles against the original — the performance-
// deviation methodology of §5.4. It also demonstrates SAM's progressive-
// sampling cardinality estimator, which is useful for sanity-checking the
// learned distribution before committing to a generation run.
//
// Run:  ./build/examples/benchmark_dbms_census

#include <cstdio>

#include "ar/batched_estimator.h"
#include "common/logging.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "sam/sam_model.h"
#include "workload/generator.h"
#include "workload/io.h"

int main() {
  using namespace sam;

  std::printf("[1/5] Customer database + query log...\n");
  Database hidden = MakeDmvLike(/*num_rows=*/12000, /*seed=*/31);
  auto exec = Executor::Create(&hidden).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 1500;
  wopts.seed = 11;
  Workload log =
      GenerateSingleRelationWorkload(hidden, "dmv", *exec, wopts).MoveValue();
  // Query logs are shipped between services as files.
  SAM_CHECK_OK(SaveWorkload(log, "/tmp/sam_dmv_workload.txt"));
  Workload loaded = LoadWorkload("/tmp/sam_dmv_workload.txt").MoveValue();
  std::printf("      %zu queries round-tripped through /tmp/sam_dmv_workload.txt\n",
              loaded.size());

  std::printf("[2/5] Training SAM and persisting the model...\n");
  SchemaHints hints;
  hints.numeric_columns = {"dmv.valid_date"};
  hints.numeric_bounds["dmv.valid_date"] = {0, 2100};
  SamOptions options;
  options.training.epochs = 8;
  auto trained =
      SamModel::Train(hidden, loaded, hints, /*foj_size=*/12000, options)
          .MoveValue();
  SAM_CHECK_OK(trained->model()->Save("/tmp/sam_dmv_model.bin"));

  std::printf("[3/5] Reloading the model in a fresh process (simulated)...\n");
  auto service =
      SamModel::Create(hidden, loaded, hints, /*foj_size=*/12000, options)
          .MoveValue();
  SAM_CHECK_OK(service->model()->Load("/tmp/sam_dmv_model.bin"));
  service->model()->SyncSamplerWeights();

  // Before generating, sanity-check the learned distribution with the
  // progressive-sampling estimator on a few held-out constraints.
  std::printf("[4/5] Spot-checking learned cardinalities:\n");
  Workload spot_checks;
  for (size_t i = 0; i < 5; ++i) {
    spot_checks.push_back(loaded[i * 97 % loaded.size()]);
  }
  BatchedProgressiveEstimator estimator(service->model());
  const std::vector<double> ests =
      estimator.EstimateBatch(spot_checks, /*paths=*/400).MoveValue();
  for (size_t i = 0; i < spot_checks.size(); ++i) {
    const Query& q = spot_checks[i];
    const double est = ests[i];
    std::printf("      est=%10.0f true=%10lld  q-error=%5.2f   %s\n", est,
                static_cast<long long>(q.cardinality),
                QError(est, static_cast<double>(q.cardinality)),
                q.ToString().c_str());
  }

  std::printf("[5/5] Generating the benchmark database and comparing latency...\n");
  Database synthetic = service->Generate().MoveValue();
  auto syn_exec = Executor::Create(&synthetic).MoveValue();

  SingleRelationWorkloadOptions topts;
  topts.num_queries = 60;
  topts.seed = 12;
  Workload bench_queries =
      GenerateSingleRelationWorkload(hidden, "dmv", *exec, topts).MoveValue();
  const MetricSummary dev =
      PerformanceDeviationMs(*exec, *syn_exec, bench_queries, 5).MoveValue();
  std::printf("      latency deviation vs original: median=%.3fms 90th=%.3fms\n",
              dev.median, dev.p90);
  const MetricSummary fid = QErrorOnDatabase(*syn_exec, bench_queries).MoveValue();
  std::printf("      unseen-query Q-Error:          median=%.2f 90th=%.2f\n",
              fid.median, fid.p90);
  std::printf("Done. The synthetic database is a drop-in benchmarking stand-in.\n");
  return 0;
}
