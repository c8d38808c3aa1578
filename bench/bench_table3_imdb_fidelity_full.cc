// Table 3: Q-Error of input queries on IMDB, full-scale workload — SAM
// versus the "SAM w/o Group-and-Merge" ablation (keys from pairwise views).
// Evaluated on a random 1,000-query sample of the input constraints (§5.1).

#include "bench_common.h"
#include "common/logging.h"

namespace sam::bench {
namespace {

MetricSummary RunVariant(const BenchConfig& config, const MultiRelSetup& setup,
                         bool group_and_merge) {
  SamOptions options = ImdbSamOptions(config);
  auto sam = SamModel::Train(*setup.db, setup.train, setup.hints,
                             setup.foj_size, options);
  SAM_CHECK(sam.ok()) << sam.status().ToString();
  auto gen = GenerateSamVariant(*sam.ValueOrDie(), group_and_merge);
  SAM_CHECK(gen.ok()) << gen.status().ToString();
  const Workload eval = SampleQueries(setup.train, 1000, config.seed + 29);
  auto qe = EvaluateFidelity(gen.ValueOrDie(), eval);
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
  PrintKv("IMDB-like titles",
          std::to_string(setup.db->FindTable("title")->num_rows()));
  PrintKv("Full outer join size", std::to_string(setup.foj_size));
  PrintKv("Input queries", std::to_string(setup.train.size()));

  const MetricSummary no_gm = RunVariant(config, setup, /*group_and_merge=*/false);
  const MetricSummary with_gm = RunVariant(config, setup, /*group_and_merge=*/true);

  PrintHeader("Table 3: Q-Error of input queries on IMDB - full scale",
              {"Median", "75th", "90th", "Mean", "Max"});
  PrintRow("SAM w/o Group-and-Merge", no_gm, /*with_max=*/true);
  PrintRow("SAM", with_gm, /*with_max=*/true);
  return 0;
}
