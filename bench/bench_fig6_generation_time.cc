// Figure 6: database generation time and input-query fidelity versus the
// number of full-outer-join tuples sampled from the AR model (IMDB).
// Generation time scales linearly in the sample count, and the median
// Q-Error plateaus well before the FOJ size is reached (the paper needs only
// ~1/20,000 of the FOJ).

#include "bench_common.h"
#include "common/logging.h"
#include "common/stopwatch.h"

int main(int argc, char** argv) {
  using namespace sam;
  using namespace sam::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  InitObservability(config);
  const DatasetSizes sizes = SizesFor(config);
  auto setup_res = SetupImdb(config, sizes.train_queries_multi);
  SAM_CHECK(setup_res.ok()) << setup_res.status().ToString();
  const MultiRelSetup setup = setup_res.MoveValue();

  // Train once; sweep only the generation sample count.
  SamOptions options = ImdbSamOptions(config);
  Result<std::unique_ptr<SamModel>> sam = Status::Internal("unset");
  {
    BenchPhase phase("train");
    sam = SamModel::Train(*setup.db, setup.train, setup.hints, setup.foj_size,
                          options);
  }
  SAM_CHECK(sam.ok()) << sam.status().ToString();
  SamModel& model = *sam.ValueOrDie();
  const Workload eval = SampleQueries(setup.train, 300, config.seed + 31);

  std::printf("\n=== Figure 6: generation time & Q-Error vs #FOJ samples ===\n");
  PrintKv("Full outer join size", std::to_string(setup.foj_size));
  std::printf("%14s%16s%16s\n", "foj_samples", "gen_seconds", "median_qerror");

  const size_t max_k = config.paper_scale ? 400000 : 80000;
  for (size_t k = 5000; k <= max_k; k *= 2) {
    BenchPhase phase("generate_k" + std::to_string(k));
    Stopwatch watch;
    const SamModel::FojSample foj = model.SampleFoj(k, config.seed * 2027 + k);
    auto gen = model.GenerateFromFoj(foj);
    const double secs = watch.ElapsedSeconds();
    SAM_CHECK(gen.ok()) << gen.status().ToString();
    auto qe = EvaluateFidelity(gen.ValueOrDie(), eval);
    SAM_CHECK(qe.ok()) << qe.status().ToString();
    std::printf("%14zu%16.3f%16.3f\n", k, secs, qe.ValueOrDie().median);
    std::fflush(stdout);
  }
  FinishObservability(config);
  return 0;
}
