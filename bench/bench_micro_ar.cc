// Micro benchmarks for the hot paths of the AR model and the execution
// engine: conditional-distribution evaluation, FOJ sampling throughput, DPS
// shard tapes and training steps, and cardinality evaluation.
//
//   ./build/bench/bench_micro_ar [--repeats=N]
//
// Each line is the median time per call over N timed batches (default 3);
// items/s counts rows (batch benches), queries or multiply-adds as noted.

#include <sys/resource.h>

#include "ar/batched_estimator.h"
#include "ar/dps_trainer.h"
#include "ar/made.h"
#include "bench_common.h"
#include "common/logging.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

using bench::BenchConfig;
using bench::KeepAlive;
using bench::RunMicro;

struct CensusFixture {
  CensusFixture() {
    db = std::make_unique<Database>(MakeCensusLike(4000, 7));
    exec = Executor::Create(db.get()).MoveValue();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 256;
    train = GenerateSingleRelationWorkload(*db, "census", *exec, wopts)
                .MoveValue();
    SchemaHints hints;
    hints.numeric_columns = {"census.age", "census.education_num",
                             "census.capital_gain", "census.capital_loss",
                             "census.hours_per_week"};
    hints.numeric_bounds["census.age"] = {17, 90};
    hints.numeric_bounds["census.education_num"] = {1, 16};
    hints.numeric_bounds["census.capital_gain"] = {0, 61000};
    hints.numeric_bounds["census.capital_loss"] = {0, 10000};
    hints.numeric_bounds["census.hours_per_week"] = {1, 99};
    schema = std::make_unique<ModelSchema>(
        ModelSchema::Build(*db, train, hints, 4000).MoveValue());
    MadeModel::Options mopts;
    mopts.hidden_sizes = {64, 64};
    model = std::make_unique<MadeModel>(schema.get(), mopts);
    model->SyncSamplerWeights();
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  std::unique_ptr<ModelSchema> schema;
  std::unique_ptr<MadeModel> model;
};

CensusFixture& Fixture() {
  static CensusFixture* fixture = new CensusFixture();
  return *fixture;
}

// Random in-domain codes for every column of a `batch`-row sweep, so the
// hidden activations are as dense as they are mid-generation.
std::vector<std::vector<int32_t>> SweepCodes(const CensusFixture& f,
                                             size_t batch) {
  Rng rng(99);
  std::vector<std::vector<int32_t>> codes(f.schema->num_columns(),
                                          std::vector<int32_t>(batch));
  for (size_t col = 0; col < codes.size(); ++col) {
    const int64_t dom =
        static_cast<int64_t>(f.schema->columns()[col].domain_size);
    for (auto& c : codes[col]) {
      c = static_cast<int32_t>(rng.UniformInt(0, dom - 1));
    }
  }
  return codes;
}

// One call is one full column sweep, as a sampler runs it: ResetState, then
// CondProbs + Observe for every column. The state computes each hidden unit
// once per sweep, so calling CondProbs again on one state would time work
// it has already done. items/s counts rows.
void BenchSweep(const BenchConfig& config, const std::string& name,
                size_t batch) {
  auto& f = Fixture();
  MadeModel::SamplerState s = f.model->InitState(batch);
  const auto codes = SweepCodes(f, batch);
  RunMicro(config, name, [&] {
    f.model->ResetState(&s, batch);
    for (size_t col = 0; col < codes.size(); ++col) {
      KeepAlive(f.model->CondProbs(s, col).data());
      f.model->Observe(&s, col, codes[col]);
    }
  }, static_cast<double>(batch));
}

const char* BackendName(kernels::Backend b) {
  return b == kernels::Backend::kAvx2 ? "Avx2" : "Scalar";
}

/// Pins a kernel backend for one bench case and restores the previous one.
class BackendGuard {
 public:
  explicit BackendGuard(kernels::Backend b) : saved_(kernels::ActiveBackend()) {
    kernels::SetBackend(b);
  }
  ~BackendGuard() { kernels::SetBackend(saved_); }

 private:
  kernels::Backend saved_;
};

// Same sweep, backend pinned per case: the scalar/AVX2 delta is the
// headline number of docs/PERFORMANCE.md. The AVX2 case is reported as
// skipped when the build or CPU lacks AVX2.
void BenchMadeCondProbsBackend(const BenchConfig& config, kernels::Backend b,
                               size_t batch) {
  const std::string name = std::string("MadeCondProbs") + BackendName(b) +
                           "/" + std::to_string(batch);
  if (b == kernels::Backend::kAvx2 && !kernels::Avx2Available()) {
    bench::SkipMicro(name, "AVX2 unavailable");
    return;
  }
  BackendGuard guard(b);
  BenchSweep(config, name, batch);
}

// items/s counts multiply-adds (2 n^3 per call).
void BenchKernelMatmul(const BenchConfig& config, kernels::Backend b,
                       size_t n) {
  const std::string name =
      std::string("KernelMatmul") + BackendName(b) + "/" + std::to_string(n);
  if (b == kernels::Backend::kAvx2 && !kernels::Avx2Available()) {
    bench::SkipMicro(name, "AVX2 unavailable");
    return;
  }
  std::vector<double> a(n * n, 1.5), bm(n * n, -0.75), c(n * n);
  const auto& table = kernels::Table(b);
  RunMicro(config, name, [&] {
    table.matmul(a.data(), n, n, n, bm.data(), n, c.data());
    KeepAlive(c.data());
  }, static_cast<double>(2 * n * n * n));
}

// Word-level bitmap predicate evaluation against a census-sized code column.
void BenchEvalPredicates(const BenchConfig& config, kernels::Backend b) {
  const std::string name = std::string("EvalPredicates") + BackendName(b);
  if (b == kernels::Backend::kAvx2 && !kernels::Avx2Available()) {
    bench::SkipMicro(name, "AVX2 unavailable");
    return;
  }
  auto& f = Fixture();
  BackendGuard guard(b);
  size_t q = 0;
  RunMicro(config, name, [&] {
    auto card = f.exec->Cardinality(f.train[q % f.train.size()]);
    SAM_CHECK(card.ok());
    KeepAlive(card.ValueOrDie());
    ++q;
  });
}

void BenchMadeObserve(const BenchConfig& config, size_t batch) {
  auto& f = Fixture();
  MadeModel::SamplerState s = f.model->InitState(batch);
  const std::vector<int32_t> codes(batch, 0);
  RunMicro(config, "MadeObserve/" + std::to_string(batch),
           [&] { f.model->Observe(&s, 0, codes); }, static_cast<double>(batch));
}

// K queries coalesced into one batched call; items/s is queries/s. Compare
// against K = 1 at the same path count for the fusion win; bench_estimation
// --threads gives the pool-sharded numbers, so this one stays
// single-threaded.
void BenchBatchedProgressiveEstimate(const BenchConfig& config,
                                     size_t coalesced, size_t paths) {
  auto& f = Fixture();
  BatchedProgressiveEstimator est(f.model.get());
  std::vector<Query> queries;
  for (size_t i = 0; i < coalesced; ++i) {
    queries.push_back(f.train[i % f.train.size()]);
  }
  RunMicro(config,
           "BatchedProgressiveEstimate/" + std::to_string(coalesced) + "/" +
               std::to_string(paths),
           [&] {
             auto cards = est.EstimateBatch(queries, paths);
             SAM_CHECK(cards.ok());
             KeepAlive(cards.ValueOrDie());
           },
           static_cast<double>(coalesced));
}

// One DPS epoch over the fixture workload; items/s is queries/s.
void BenchDpsTrainStep(const BenchConfig& config, size_t batch_size) {
  auto& f = Fixture();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {64, 64};
  MadeModel model(f.schema.get(), mopts);
  DpsOptions dopts;
  dopts.epochs = 1;
  dopts.batch_size = batch_size;
  RunMicro(config, "DpsTrainStep/" + std::to_string(batch_size), [&] {
    auto stats = TrainDps(&model, f.train, dopts);
    SAM_CHECK(stats.ok());
  }, static_cast<double>(f.train.size()));
}

long MinorFaultsOfThisThread() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

// One DPS shard tape (`RunDpsShardTape`, forward and backward) of `queries`
// queries at 2 paths each, on the calling thread with no team, MADE 48x48 as
// in perfbench's census_inram; items/s is queries/s. A second line gives the
// tape's minor page faults, counted on this thread alone.
void BenchDpsShardTape(const BenchConfig& config, size_t queries) {
  auto& f = Fixture();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {48, 48};
  MadeModel model(f.schema.get(), mopts);
  std::vector<CompiledQuery> compiled;
  for (size_t i = 0; i < queries; ++i) {
    compiled.push_back(
        f.schema->Compile(f.train[i % f.train.size()]).MoveValue());
  }
  std::vector<const CompiledQuery*> batch;
  for (const CompiledQuery& q : compiled) batch.push_back(&q);
  const DpsOptions dopts;
  const size_t rows = queries * dopts.sample_paths;
  MadeModel::MaskedWeights leaves;
  const std::string name = "DpsShardTape/" + std::to_string(queries);
  long faults = 0;
  size_t tapes = 0;
  RunMicro(config, name, [&] {
    const long before = MinorFaultsOfThisThread();
    KeepAlive(RunDpsShardTape(model, batch, dopts, /*epoch=*/0, /*tau=*/1.0,
                              /*first_row=*/0, rows, &leaves));
    faults += MinorFaultsOfThisThread() - before;
    ++tapes;
  }, static_cast<double>(queries));
  std::printf("%-40s %10.1f minor faults/tape\n", name.c_str(),
              static_cast<double>(faults) / static_cast<double>(tapes));
}

void BenchExecutorCardinality(const BenchConfig& config) {
  auto& f = Fixture();
  size_t q = 0;
  RunMicro(config, "ExecutorCardinality", [&] {
    auto card = f.exec->Cardinality(f.train[q % f.train.size()]);
    SAM_CHECK(card.ok());
    KeepAlive(card.ValueOrDie());
    ++q;
  });
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) {
  using namespace sam;
  using kernels::Backend;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  for (size_t batch : {64, 512, 2048}) {
    BenchSweep(config, "MadeCondProbs/" + std::to_string(batch), batch);
  }
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    for (size_t batch : {512, 2048}) {
      BenchMadeCondProbsBackend(config, b, batch);
    }
  }
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    for (size_t n : {64, 256}) BenchKernelMatmul(config, b, n);
  }
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    BenchEvalPredicates(config, b);
  }
  BenchMadeObserve(config, 512);
  BenchBatchedProgressiveEstimate(config, 1, 64);
  BenchBatchedProgressiveEstimate(config, 8, 64);
  BenchBatchedProgressiveEstimate(config, 64, 64);
  BenchBatchedProgressiveEstimate(config, 8, 256);
  for (size_t queries : {1, 4, 16, 64}) BenchDpsShardTape(config, queries);
  BenchDpsTrainStep(config, 64);
  BenchExecutorCardinality(config);
  return 0;
}
