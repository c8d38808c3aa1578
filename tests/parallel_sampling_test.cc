// Parallel FOJ sampling (§4.2 "embarrassingly parallel"): correctness and
// determinism of the sharded sampler, in Alg 1's in-RAM `SampleFoj` and in
// the generation pipeline's lookahead.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/metrics_registry.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "storage/spill.h"
#include "workload/generator.h"

namespace sam {
namespace {

std::unique_ptr<SamModel> MakeModel(const Database& db, const Executor& exec,
                                    const SamOptions& options) {
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 50;
  auto train = GenerateMultiRelationWorkload(db, exec, wopts).MoveValue();
  SchemaHints hints;
  auto sam =
      SamModel::Create(db, train, hints, exec.FullOuterJoinSize(), options)
          .MoveValue();
  sam->model()->SyncSamplerWeights();
  return sam;
}

TEST(ParallelSamplingTest, ShardedSamplerIsDeterministicPerThreadCount) {
  Database db = MakeImdbLike(200, 3);
  auto exec = Executor::Create(&db).MoveValue();
  SamOptions options;
  options.generation_threads = 4;
  options.generation_batch = 128;
  auto sam = MakeModel(db, *exec, options);

  const auto a = sam->SampleFoj(1000, 42);
  const auto b = sam->SampleFoj(1000, 42);
  ASSERT_EQ(a.count, b.count);
  for (size_t c = 0; c < a.codes.size(); ++c) {
    EXPECT_EQ(a.codes[c], b.codes[c]) << "column " << c;
  }
}

TEST(ParallelSamplingTest, ParallelIsBitIdenticalToSequential) {
  Database db = MakeImdbLike(200, 5);
  auto exec = Executor::Create(&db).MoveValue();
  SamOptions seq_opts;
  seq_opts.generation_threads = 1;
  seq_opts.generation_batch = 256;
  auto seq_model = MakeModel(db, *exec, seq_opts);

  const auto seq = seq_model->SampleFoj(4000, 7);

  // Every batch derives its RNG from the caller seed and the batch index, so
  // the sampled codes are bit-identical for every thread count.
  for (size_t threads : {2, 3, 8}) {
    SamOptions par_opts = seq_opts;
    par_opts.generation_threads = threads;
    auto par_model = MakeModel(db, *exec, par_opts);
    const auto par = par_model->SampleFoj(4000, 7);
    ASSERT_EQ(seq.count, par.count);
    for (size_t c = 0; c < seq.codes.size(); ++c) {
      EXPECT_EQ(seq.codes[c], par.codes[c])
          << "column " << c << " diverges at generation_threads=" << threads;
    }
  }
}

/// FNV-1a over every decoded cell of `db`, table by table in column order.
uint64_t CellDigest(const Database& db) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0xff) * 1099511628211ULL;  // Cell separator.
  };
  for (const auto& t : db.tables()) {
    mix(t.name());
    for (const auto& c : t.columns()) {
      for (size_t r = 0; r < c.num_rows(); ++r) mix(c.ValueAt(r).ToString());
    }
  }
  return h;
}

/// Every regular file under `dir`, keyed by relative path.
std::map<std::string, std::string> ReadTree(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    out[std::filesystem::relative(e.path(), dir).string()] = ss.str();
  }
  return out;
}

TEST(ParallelSamplingTest, DefaultThreadsMatchSerialGeneration) {
  Database db = MakeCensusLike(3000, 17);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 60;
  auto train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SamOptions options;
  options.generation_batch = 256;  // 12 batches: every worker takes several.

  // Alg 1 in RAM: |T| samples through SampleFoj, then the decode. Only
  // `generation_threads` differs between the runs (the untrained weights come
  // from the fixed model seed); 0 is hardware concurrency.
  uint64_t serial = 0;
  for (size_t threads : {1, 2, 4, 0}) {
    options.generation_threads = threads;
    auto sam = SamModel::Create(db, train, SchemaHints{}, 3000, options)
                   .MoveValue();
    sam->model()->SyncSamplerWeights();
    auto gen = sam->Generate();
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    ASSERT_EQ(gen.ValueOrDie().FindTable("census")->num_rows(), 3000u);
    const uint64_t digest = CellDigest(gen.ValueOrDie());
    if (threads == 1) serial = digest;
    EXPECT_EQ(digest, serial) << "generation_threads=" << threads;
  }
}

struct WindowRun {
  std::map<std::string, std::string> tree;  ///< The published files.
  double sample_parallelism = 0.0;          ///< Gauge high-water mark.
};

/// Runs the generation pipeline for `sam` under `dir` on `threads` workers;
/// the run must complete within the memory cap.
WindowRun RunWindow(const SamModel& sam, const std::filesystem::path& dir,
                    size_t threads) {
  GenerationPipelineOptions o;
  o.out_dir = (dir / "out").string();
  o.work_dir = (dir / "work").string();
  o.threads = threads;
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("sam.gen.sample_parallelism");
  gauge->Reset();
  obs::EnableMetrics(true);
  auto r = GenerationPipeline(&sam, o).Run();
  obs::EnableMetrics(false);
  WindowRun out;
  EXPECT_TRUE(r.ok()) << dir << ": " << r.status().ToString();
  if (!r.ok()) return out;
  EXPECT_TRUE(r.ValueOrDie().completed) << dir;
  EXPECT_LE(r.ValueOrDie().peak_reserved, sam.options().memory_cap_bytes)
      << dir;
  out.tree = ReadTree(o.out_dir);
  out.sample_parallelism = gauge->Max();
  return out;
}

TEST(ParallelSamplingTest, PipelineSampleWindowIsByteIdentical) {
  const auto root =
      std::filesystem::temp_directory_path() / "sam_parallel_sample_window";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Imdb-like snowflake, 8 sample batches. The lookahead holds one batch
  // per pool thread at a loose cap, and still does near the
  // pipeline's per-relation floor (~0.95 MiB here): that floor is ~3x the
  // FOJ codes, so the headroom rule never binds on this schema.
  Database db = MakeImdbLike(200, 11);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 80;
  auto train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SamOptions options;
  options.model.hidden_sizes = {16, 16};
  options.training.epochs = 1;
  options.generation_batch = 512;
  options.foj_samples = 8 * 512;
  const std::string weights = (root / "model.bin").string();
  {
    auto trained = SamModel::Train(db, train, SchemaHints{},
                                   exec->FullOuterJoinSize(), options)
                       .MoveValue();
    ASSERT_TRUE(trained->model()->Save(weights).ok());
  }
  for (int64_t cap : {256ll << 20, 5ll << 18}) {
    options.memory_cap_bytes = cap;
    auto sam = SamModel::Create(db, train, SchemaHints{},
                                exec->FullOuterJoinSize(), options)
                   .MoveValue();
    ASSERT_TRUE(sam->model()->Load(weights).ok());
    sam->model()->SyncSamplerWeights();
    const std::string tag = "imdb_cap" + std::to_string(cap);
    const WindowRun golden = RunWindow(*sam, root / (tag + "_1"), 1);
    ASSERT_FALSE(golden.tree.empty()) << tag;
    EXPECT_EQ(golden.sample_parallelism, 1.0) << tag;
    for (size_t threads : {2, 4}) {
      const WindowRun par =
          RunWindow(*sam, root / (tag + "_" + std::to_string(threads)),
                    threads);
      EXPECT_EQ(par.tree, golden.tree) << tag << " threads=" << threads;
      EXPECT_EQ(par.sample_parallelism, static_cast<double>(threads))
          << tag << " threads=" << threads;
    }
  }

  // Census-like single relation (the CLI's Alg 1 path), whose floor does
  // not grow with |T|, in 3 sample batches of b bytes of codes. Its decode
  // still reserves a row buffer of up to 128 KiB at these caps (64 KiB flush
  // threshold plus one 64 KiB slab), which the lookahead leaves free.
  //  * 128 KiB + 2.5b: room for one speculative batch next to the step's
  //    own, so the lookahead is squeezed to one entry.
  //  * 2.75b: no room. A quarter-of-cap rule alone would admit one
  //    speculative batch here (2b <= 3/4 cap), and the row buffer would
  //    then exceed the cap that the serial run fits in.
  Database census = MakeCensusLike(3000, 17);
  auto census_exec = Executor::Create(&census).MoveValue();
  SingleRelationWorkloadOptions swopts;
  swopts.num_queries = 60;
  auto census_train = GenerateSingleRelationWorkload(census, "census",
                                                     *census_exec, swopts)
                          .MoveValue();
  SamOptions census_opts;
  census_opts.generation_batch = 1024;
  int64_t b = 0;
  {
    auto probe = SamModel::Create(census, census_train, SchemaHints{}, 3000,
                                  census_opts)
                     .MoveValue();
    b = FojChunk::BytesFor(census_opts.generation_batch,
                           probe->schema().num_columns());
  }
  for (const int64_t cap : {int64_t{128 << 10} + 5 * b / 2, 11 * b / 4}) {
    census_opts.memory_cap_bytes = cap;
    auto sam = SamModel::Create(census, census_train, SchemaHints{}, 3000,
                                census_opts)
                   .MoveValue();
    sam->model()->SyncSamplerWeights();
    const std::string tag = "census_cap" + std::to_string(cap);
    const WindowRun golden = RunWindow(*sam, root / (tag + "_1"), 1);
    ASSERT_FALSE(golden.tree.empty()) << tag;
    for (size_t threads : {2, 4}) {
      const WindowRun par =
          RunWindow(*sam, root / (tag + "_" + std::to_string(threads)),
                    threads);
      EXPECT_EQ(par.tree, golden.tree) << tag << " threads=" << threads;
      EXPECT_EQ(par.sample_parallelism, 1.0) << tag << " threads=" << threads;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ParallelSamplingTest, GenerationWorksWithParallelSampler) {
  // Alg 1 in RAM samples through `SampleFoj`: a census-like
  // single relation, sampled on 4 workers in batches of 128.
  Database db = MakeCensusLike(1200, 7);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 120;
  auto train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SamOptions options;
  options.generation_threads = 4;
  options.generation_batch = 128;
  options.model.hidden_sizes = {16, 16};
  options.training.epochs = 2;
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("sam.gen.sample_parallelism");
  gauge->Reset();
  obs::EnableMetrics(true);
  auto sam =
      SamModel::Train(db, train, SchemaHints{}, 1200, options).MoveValue();
  auto gen = sam->Generate();
  obs::EnableMetrics(false);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gauge->Max(), 4.0);  // The parallel path ran on 4 workers.
  const Table* t = gen.ValueOrDie().FindTable("census");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 1200u);
  EXPECT_EQ(t->num_columns(), db.FindTable("census")->num_columns());
}

}  // namespace
}  // namespace sam
