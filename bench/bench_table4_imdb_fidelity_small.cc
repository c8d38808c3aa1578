// Table 4: Q-Error of a small IMDB input workload (400 queries in the paper —
// the number PGM can process in its budget), comparing PGM, SAM w/o
// Group-and-Merge, and SAM on the *same* constraints.

#include "bench_common.h"
#include "common/logging.h"

namespace sam::bench {
namespace {

MetricSummary RunSamVariant(const BenchConfig& config, const MultiRelSetup& setup,
                            bool group_and_merge) {
  SamOptions options = ImdbSamOptions(config);
  options.training.epochs *= 4;  // Small workload: more passes.
  auto sam = SamModel::Train(*setup.db, setup.train, setup.hints,
                             setup.foj_size, options);
  SAM_CHECK(sam.ok()) << sam.status().ToString();
  auto gen = GenerateSamVariant(*sam.ValueOrDie(), group_and_merge);
  SAM_CHECK(gen.ok()) << gen.status().ToString();
  auto qe = EvaluateFidelity(gen.ValueOrDie(), setup.train);
  SAM_CHECK(qe.ok()) << qe.status().ToString();
  return qe.ValueOrDie();
}

}  // namespace
}  // namespace sam::bench

int main(int argc, char** argv) {
  using namespace sam;
  using namespace sam::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  auto setup_res = SetupImdb(config, 400);
  SAM_CHECK(setup_res.ok()) << setup_res.status().ToString();
  const MultiRelSetup setup = setup_res.MoveValue();

  // PGM: per-view models over the same 400 constraints.
  auto view_sizes = ViewSizesFor(*setup.exec, setup.train);
  SAM_CHECK(view_sizes.ok()) << view_sizes.status().ToString();
  auto pgm = PgmModel::Fit(*setup.db, setup.train, setup.hints,
                           view_sizes.ValueOrDie(), PgmOptions{});
  SAM_CHECK(pgm.ok()) << pgm.status().ToString();
  auto pgm_gen = pgm.ValueOrDie()->Generate();
  SAM_CHECK(pgm_gen.ok()) << pgm_gen.status().ToString();
  auto pgm_qe = EvaluateFidelity(pgm_gen.ValueOrDie(), setup.train);
  SAM_CHECK(pgm_qe.ok()) << pgm_qe.status().ToString();

  const MetricSummary no_gm = RunSamVariant(config, setup, false);
  const MetricSummary with_gm = RunSamVariant(config, setup, true);

  PrintHeader("Table 4: Q-Error of 400 input queries on IMDB",
              {"Median", "75th", "90th", "Mean", "Max"});
  PrintRow("PGM", pgm_qe.ValueOrDie(), /*with_max=*/true);
  PrintRow("SAM w/o Group-and-Merge", no_gm, /*with_max=*/true);
  PrintRow("SAM", with_gm, /*with_max=*/true);
  return 0;
}
