// Table 6: Q-Error of JOB-light-style test queries on IMDB. JOB-light joins
// up to five relations while the training (MSCN-style) workload joins at
// most two, so this probes how well the joint distribution of *all*
// relations is captured (§5.1). Compares PGM, SAM w/o Group-and-Merge, SAM.

#include "bench_common.h"
#include "common/logging.h"
#include "workload/generator.h"

namespace sam::bench {
namespace {

MetricSummary RunSamVariant(const BenchConfig& config, const MultiRelSetup& setup,
                            const Workload& test, bool group_and_merge) {
  SamOptions options = ImdbSamOptions(config);
  auto sam = SamModel::Train(*setup.db, setup.train, setup.hints,
                             setup.foj_size, options);
  SAM_CHECK(sam.ok()) << sam.status().ToString();
  auto gen = GenerateSamVariant(*sam.ValueOrDie(), group_and_merge);
  SAM_CHECK(gen.ok()) << gen.status().ToString();
  auto qe = EvaluateFidelity(gen.ValueOrDie(), test);
  SAM_CHECK(qe.ok()) << qe.status().ToString();
  return qe.ValueOrDie();
}

}  // namespace
}  // namespace sam::bench

int main(int argc, char** argv) {
  using namespace sam;
  using namespace sam::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  const DatasetSizes sizes = SizesFor(config);
  auto setup_res = SetupImdb(config, sizes.train_queries_multi);
  SAM_CHECK(setup_res.ok()) << setup_res.status().ToString();
  const MultiRelSetup setup = setup_res.MoveValue();

  JobLightWorkloadOptions jopts;
  jopts.num_queries = 70;  // The JOB-light benchmark's 70 queries.
  jopts.seed = config.seed * 1009 + 8;
  Workload test =
      GenerateJobLightWorkload(*setup.db, *setup.exec, jopts).MoveValue();
  PrintKv("JOB-light test queries", std::to_string(test.size()));

  // PGM on its feasible slice (400 queries, as in Table 4 / §5.1).
  Workload pgm_train(setup.train.begin(),
                     setup.train.begin() + std::min<size_t>(400, setup.train.size()));
  auto view_sizes = ViewSizesFor(*setup.exec, pgm_train);
  SAM_CHECK(view_sizes.ok()) << view_sizes.status().ToString();
  auto pgm = PgmModel::Fit(*setup.db, pgm_train, setup.hints,
                           view_sizes.ValueOrDie(), PgmOptions{});
  SAM_CHECK(pgm.ok()) << pgm.status().ToString();
  auto pgm_gen = pgm.ValueOrDie()->Generate();
  SAM_CHECK(pgm_gen.ok()) << pgm_gen.status().ToString();
  auto pgm_qe = EvaluateFidelity(pgm_gen.ValueOrDie(), test);
  SAM_CHECK(pgm_qe.ok()) << pgm_qe.status().ToString();

  const MetricSummary no_gm = RunSamVariant(config, setup, test, false);
  const MetricSummary with_gm = RunSamVariant(config, setup, test, true);

  PrintHeader("Table 6: Q-Error of JOB-light queries on IMDB",
              {"Median", "75th", "90th", "Mean", "Max"});
  PrintRow("PGM", pgm_qe.ValueOrDie(), /*with_max=*/true);
  PrintRow("SAM w/o Group-and-Merge", no_gm, /*with_max=*/true);
  PrintRow("SAM", with_gm, /*with_max=*/true);
  return 0;
}
