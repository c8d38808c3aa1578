// End-to-end tests for the crash-safe out-of-core generation pipeline:
// publish correctness, determinism, the kill-at-every-step resume sweep
// (byte-identical output databases), fingerprint guarding, memory-cap
// behaviour, and the artifact-layer fault-injection sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/metrics_registry.h"
#include "sam/generation_checkpoint.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "storage/artifact_io.h"
#include "storage/csv.h"
#include "storage/schema_io.h"
#include "storage/spill.h"
#include "workload/generator.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Reads every regular file under `dir` into a map keyed by relative path —
/// the byte-identity oracle for the resume and fault sweeps.
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

bool HasTmpFiles(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return false;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".tmp") return true;
  }
  return false;
}

Predicate Eq(const std::string& table, const std::string& col, const char* v) {
  return Predicate{table, col, PredOp::kEq, Value(std::string(v)), {}};
}

/// Literal workload defining the chain schema's column domains (same fixture
/// as generation_regression_test.cc).
Workload ChainWorkload() {
  Workload w;
  auto add = [&](std::vector<std::string> rels, Predicate p, int64_t card) {
    Query q;
    q.relations = std::move(rels);
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add({"A"}, Eq("A", "a", "m"), 1);
  add({"A"}, Eq("A", "a", "n"), 1);
  add({"A", "B"}, Eq("B", "b", "p"), 2);
  add({"A", "B"}, Eq("B", "b", "q"), 1);
  add({"A", "B", "C"}, Eq("C", "c", "u"), 2);
  add({"A", "B", "C"}, Eq("C", "c", "v"), 1);
  return w;
}

/// Briefly trained chain model: an *untrained* model's random indicators
/// give absent-child samples the heaviest IPW weights, which can starve a
/// child relation of incoming virtual mass — a few DPS epochs teach the
/// true indicator/fanout correlations.
/// Small FOJ sample and batch so the plan has enough steps to sweep.
std::unique_ptr<SamModel> MakeChainModel(const Database& db, SamOptions options) {
  options.foj_samples = options.foj_samples == 100000 ? 64 : options.foj_samples;
  options.generation_batch =
      options.generation_batch == 1024 ? 16 : options.generation_batch;
  options.model.hidden_sizes = {16, 16};
  options.training.epochs = 12;
  options.training.batch_size = 8;
  auto sam = SamModel::Train(db, ChainWorkload(), SchemaHints{}, 4, options);
  SAM_CHECK_OK(sam.status());
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  return sam.MoveValue();
}

Result<GenerationRunSummary> RunPipeline(const SamModel& sam,
                                         const std::string& out,
                                         const std::string& work, bool resume,
                                         uint64_t stop_after_steps = 0,
                                         std::atomic<bool>* stop_flag = nullptr,
                                         size_t threads = 0) {
  GenerationPipelineOptions o;
  o.out_dir = out;
  o.work_dir = work;
  o.resume = resume;
  o.stop_after_steps = stop_after_steps;
  o.stop_flag = stop_flag;
  o.threads = threads;
  GenerationPipeline p(&sam, o);
  return p.Run();
}

/// Byte-compares two pipeline work directories. Spill files must be
/// memcmp-identical; checkpoints are compared with the single advisory
/// thread-count-dependent field (`peak_reserved`, the reservation
/// high-water mark) masked, by reserialising both with it zeroed.
void ExpectWorkTreesEquivalent(const std::string& a, const std::string& b,
                               const std::string& scratch,
                               const std::string& label) {
  const auto ta = ReadTree(a);
  const auto tb = ReadTree(b);
  ASSERT_EQ(ta.size(), tb.size()) << label;
  for (const auto& [name, bytes] : ta) {
    const auto it = tb.find(name);
    ASSERT_NE(it, tb.end()) << label << ": '" << name << "' only in " << a;
    if (name.rfind("genckpt_", 0) == 0) {
      auto ca = GenerationCheckpoint::Load(a + "/" + name);
      auto cb = GenerationCheckpoint::Load(b + "/" + name);
      ASSERT_TRUE(ca.ok()) << label << ": " << ca.status().ToString();
      ASSERT_TRUE(cb.ok()) << label << ": " << cb.status().ToString();
      ca.ValueOrDie().peak_reserved = 0;
      cb.ValueOrDie().peak_reserved = 0;
      ASSERT_TRUE(ca.ValueOrDie().Save(scratch + "/mask_a.ckpt").ok());
      ASSERT_TRUE(cb.ValueOrDie().Save(scratch + "/mask_b.ckpt").ok());
      const auto masked = ReadTree(scratch);
      EXPECT_EQ(masked.at("mask_a.ckpt"), masked.at("mask_b.ckpt"))
          << label << ": checkpoint '" << name
          << "' differs beyond peak_reserved";
    } else {
      EXPECT_EQ(bytes, it->second) << label << ": '" << name << "' differs";
    }
  }
}

TEST(GenerationPipelineTest, CompletesPublishesAndCleansUp) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_basic");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", /*resume=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().completed);
  EXPECT_GT(r.ValueOrDie().steps_total, 5u);
  EXPECT_EQ(r.ValueOrDie().steps_executed, r.ValueOrDie().steps_total);
  EXPECT_GT(r.ValueOrDie().spill_bytes, 0u);
  EXPECT_TRUE(r.ValueOrDie().resumed_from.empty());
  // Work dir is cleaned up after a successful publish.
  EXPECT_FALSE(std::filesystem::exists(root + "/work"));

  // The published database loads, validates and honours Alg 2's sizes.
  auto gen = LoadDatabase(root + "/out");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("A")->num_rows(), 2u);
  EXPECT_EQ(gen.ValueOrDie().FindTable("B")->num_rows(), 3u);
  EXPECT_GE(gen.ValueOrDie().FindTable("C")->num_rows(), 2u);
  EXPECT_LE(gen.ValueOrDie().FindTable("C")->num_rows(), 4u);
  EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok());
}

TEST(GenerationPipelineTest, DeterministicAcrossRuns) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_det");

  ASSERT_TRUE(
      RunPipeline(*sam, root + "/out1", root + "/work1", false).ok());
  ASSERT_TRUE(
      RunPipeline(*sam, root + "/out2", root + "/work2", false).ok());
  EXPECT_EQ(ReadTree(root + "/out1"), ReadTree(root + "/out2"));
}

TEST(GenerationPipelineTest, ResumeAtEveryStepIsByteIdentical) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_sweep");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const auto golden = ReadTree(root + "/golden");
  const uint64_t steps = golden_run.ValueOrDie().steps_total;
  ASSERT_GT(steps, 2u);

  for (uint64_t s = 1; s < steps; ++s) {
    const std::string out = root + "/out";
    const std::string work = root + "/work";
    std::filesystem::remove_all(out);

    auto part = RunPipeline(*sam, out, work, /*resume=*/false, s);
    ASSERT_TRUE(part.ok()) << "stop=" << s << ": " << part.status().ToString();
    ASSERT_FALSE(part.ValueOrDie().completed) << "stop=" << s;
    EXPECT_EQ(part.ValueOrDie().next_step, s);
    EXPECT_FALSE(std::filesystem::exists(out)) << "stop=" << s;

    auto rest = RunPipeline(*sam, out, work, /*resume=*/true);
    ASSERT_TRUE(rest.ok()) << "stop=" << s << ": " << rest.status().ToString();
    ASSERT_TRUE(rest.ValueOrDie().completed) << "stop=" << s;
    EXPECT_FALSE(rest.ValueOrDie().resumed_from.empty());
    EXPECT_EQ(ReadTree(out), golden) << "stop=" << s;
  }
}

TEST(GenerationPipelineTest, SurvivesAnInterruptionAtEverySingleStep) {
  // Harder than the sweep above: ONE run interrupted after every step, i.e.
  // `steps_total` separate process lifetimes, each resuming the previous.
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_chainstop");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const uint64_t steps = golden_run.ValueOrDie().steps_total;

  const std::string out = root + "/out";
  const std::string work = root + "/work";
  bool completed = false;
  for (uint64_t i = 0; i <= steps + 1 && !completed; ++i) {
    auto r = RunPipeline(*sam, out, work, /*resume=*/i > 0,
                         /*stop_after_steps=*/1);
    ASSERT_TRUE(r.ok()) << "leg " << i << ": " << r.status().ToString();
    completed = r.ValueOrDie().completed;
  }
  ASSERT_TRUE(completed);
  EXPECT_EQ(ReadTree(out), ReadTree(root + "/golden"));
}

TEST(GenerationPipelineTest, ResumeRejectsFingerprintMismatch) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_fpr");

  auto part =
      RunPipeline(*sam, root + "/out", root + "/work", false, /*stop=*/2);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  ASSERT_FALSE(part.ValueOrDie().completed);

  // A different generation seed is a different configuration fingerprint.
  SamOptions other_options;
  other_options.generation_seed = 1000;
  const auto other = MakeChainModel(db, other_options);
  ASSERT_NE(sam->options().generation_seed, other->options().generation_seed);

  auto r = RunPipeline(*other, root + "/out", root + "/work", /*resume=*/true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("fingerprint"), std::string::npos)
      << r.status().ToString();
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GenerationPipelineTest, FingerprintsMatchRecordedValues) {
  // Checkpoints embed these fingerprints and resume requires equality, so
  // a checkpoint written by an earlier build resumes only while both stay
  // value-identical. Constants recorded for an untrained default-option
  // chain model; a change to either hash is a checkpoint format break.
  constexpr uint64_t kTraining = 0x00a45fc1238224ddULL;
  constexpr uint64_t kGeneration = 0xa2f260ce01ba7d00ULL;
  const Database db = MakeChainDatabase();
  const Workload train = ChainWorkload();
  auto sam = SamModel::Create(db, train, SchemaHints{}, 4, SamOptions{});
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  const SamModel& model = *sam.ValueOrDie();
  EXPECT_EQ(Hex(TrainingFingerprint(model.options().training, *model.model(),
                                    train)),
            Hex(kTraining));
  GenerationPipelineOptions o;
  o.out_dir = "unused_out";
  o.work_dir = "unused_work";
  EXPECT_EQ(Hex(GenerationPipeline(&model, o).Fingerprint()),
            Hex(kGeneration));
}

TEST(GenerationPipelineTest, ResumeWithoutCheckpointIsNotFound) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_nockpt");
  std::filesystem::create_directories(root + "/work");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", /*resume=*/true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << r.status().ToString();
}

TEST(GenerationPipelineTest, FreshRunClearsOnlyItsOwnWorkDir) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_foreign_work");

  // A non-empty directory that no run created is the caller's: the fresh
  // run fails naming it and deletes nothing.
  const std::string foreign = root + "/foreign";
  std::filesystem::create_directories(foreign);
  std::ofstream(foreign + "/thesis.txt") << "four years of work\n";
  auto r = RunPipeline(*sam, root + "/out", foreign, /*resume=*/false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find(foreign), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(ReadTree(foreign).at("thesis.txt"), "four years of work\n");
  EXPECT_EQ(ReadTree(foreign).size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(root + "/out"));

  // An empty directory is accepted, and so is one left by an earlier run.
  const std::string empty = root + "/empty";
  std::filesystem::create_directories(empty);
  auto fresh = RunPipeline(*sam, root + "/out", empty, /*resume=*/false);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh.ValueOrDie().completed);
  std::filesystem::remove_all(root + "/out");

  const std::string left = root + "/left";
  auto stopped = RunPipeline(*sam, root + "/out", left, false, /*stop=*/2);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  ASSERT_FALSE(stopped.ValueOrDie().completed);
  auto again = RunPipeline(*sam, root + "/out", left, /*resume=*/false);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.ValueOrDie().completed);
}

TEST(GenerationPipelineTest, StopFlagCheckpointsThenResumeCompletes) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_stopflag");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();

  // Pre-set flag: the pipeline must stop before the first step (the SIGINT
  // arrived before the run got going) and leave a resumable checkpoint.
  std::atomic<bool> stop{true};
  auto r = RunPipeline(*sam, root + "/out", root + "/work", false, 0, &stop);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().completed);
  EXPECT_EQ(r.ValueOrDie().steps_executed, 0u);

  stop.store(false);
  auto rest = RunPipeline(*sam, root + "/out", root + "/work", true, 0, &stop);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_TRUE(rest.ValueOrDie().completed);
  EXPECT_EQ(ReadTree(root + "/out"), ReadTree(root + "/golden"));
}

TEST(GenerationPipelineTest, MemoryCapBoundsPeakAndSpillsHarder) {
  const Database db = MakeChainDatabase();

  // Generous cap: single partition.
  SamOptions loose;
  loose.foj_samples = 8192;
  const auto sam_loose = MakeChainModel(db, loose);

  // 4 MiB cap with k=8192 forces partition fan-out > 1 (the per-partition
  // budget floors at 1 MiB), i.e. the pipeline spills harder instead of
  // growing.
  SamOptions tight = loose;
  tight.memory_cap_bytes = 4ll << 20;
  const auto sam_tight = MakeChainModel(db, tight);

  const std::string root = TempDir("sam_pipe_cap");
  auto rl = RunPipeline(*sam_loose, root + "/out_loose", root + "/wl", false);
  ASSERT_TRUE(rl.ok()) << rl.status().ToString();
  auto rt = RunPipeline(*sam_tight, root + "/out_tight", root + "/wt", false);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();

  // The cap property: peak accounted bytes never exceed the budget.
  EXPECT_LE(rt.ValueOrDie().peak_reserved, tight.memory_cap_bytes);
  // Tighter cap -> more (partitioned) spill traffic, same published sizes.
  EXPECT_GT(rt.ValueOrDie().steps_total, rl.ValueOrDie().steps_total);

  for (const char* out : {"/out_loose", "/out_tight"}) {
    auto gen = LoadDatabase(root + out);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(gen.ValueOrDie().FindTable("A")->num_rows(), 2u) << out;
    EXPECT_EQ(gen.ValueOrDie().FindTable("B")->num_rows(), 3u) << out;
    EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok()) << out;
  }
}

TEST(GenerationPipelineTest, PartitionedRunResumesByteIdentical) {
  const Database db = MakeChainDatabase();
  SamOptions tight;
  tight.foj_samples = 8192;
  tight.memory_cap_bytes = 4ll << 20;
  const auto sam = MakeChainModel(db, tight);
  const std::string root = TempDir("sam_pipe_cap_resume");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const uint64_t steps = golden_run.ValueOrDie().steps_total;

  // Interrupt mid-merge (past sampling, inside the partitioned steps).
  const uint64_t stop_at = steps / 2;
  auto part = RunPipeline(*sam, root + "/out", root + "/work", false, stop_at);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  ASSERT_FALSE(part.ValueOrDie().completed);
  auto rest = RunPipeline(*sam, root + "/out", root + "/work", true);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(ReadTree(root + "/out"), ReadTree(root + "/golden"));
}

// Suite name contains "Parallel" so the TSan CI job picks it up.
TEST(ParallelPartitionTest, PrefetchIsByteIdenticalAcrossThreadCounts) {
  const Database db = MakeChainDatabase();
  // 8 192 FOJ samples give a partition fan-out of 2 under the 4 MiB cap;
  // 20 480 give 4, more partitions than the lookahead holds at 2 threads,
  // so its entries are refilled within a relation.
  for (uint64_t foj_samples : {uint64_t{8192}, uint64_t{20480}}) {
    SCOPED_TRACE("foj_samples=" + std::to_string(foj_samples));
    SamOptions tight;
    tight.foj_samples = foj_samples;
    tight.memory_cap_bytes = 4ll << 20;  // Forces partition fan-out > 1.
    const auto sam = MakeChainModel(db, tight);
    const std::string root =
        TempDir(("sam_pipe_parallel_part_" + std::to_string(foj_samples))
                    .c_str());

    auto serial = RunPipeline(*sam, root + "/out1", root + "/w1", false,
                              /*stop_after_steps=*/0, /*stop_flag=*/nullptr,
                              /*threads=*/1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(serial.ValueOrDie().completed);
    const auto golden = ReadTree(root + "/out1");

    size_t variant = 2;
    // 0 = hardware concurrency.
    for (size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
      const std::string out = root + "/out" + std::to_string(variant);
      const std::string work = root + "/w" + std::to_string(variant);
      ++variant;
      auto r = RunPipeline(*sam, out, work, false, 0, nullptr, threads);
      ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                          << r.status().ToString();
      EXPECT_LE(r.ValueOrDie().peak_reserved, tight.memory_cap_bytes)
          << "threads=" << threads;
      EXPECT_EQ(ReadTree(out), golden) << "threads=" << threads;
    }
  }
}

// A root partition's lookahead entry reserves for the positively weighted
// samples of that partition, not of the whole root relation: at fan-out 4
// under the 4 MiB cap, a whole-relation estimate never fits and the root's
// phase A would run inline at every thread count.
TEST(ParallelPartitionTest, RootPartitionsPrefetchAtFanOutFour) {
  const Database db = MakeChainDatabase();
  SamOptions tight;
  tight.foj_samples = 20480;
  tight.memory_cap_bytes = 4ll << 20;  // Partition fan-out 4.
  const auto sam = MakeChainModel(db, tight);
  const std::string root = TempDir("sam_pipe_root_prefetch");
  // The plan runs every sample step, then the root relation's partitions
  // first: stopping after the root's first partition step counts only the
  // entries that step dispatched for the root's next partitions.
  const uint64_t batch = sam->options().generation_batch;
  const uint64_t sample_steps = (tight.foj_samples + batch - 1) / batch;
  obs::Counter* prefetched = obs::MetricsRegistry::Global().GetCounter(
      "sam.generate.partitions_prefetched");
  for (size_t threads : {size_t{2}, size_t{4}}) {
    const std::string tag = std::to_string(threads);
    obs::EnableMetrics(true);
    const uint64_t before = prefetched->Value();
    auto r = RunPipeline(*sam, root + "/out" + tag, root + "/w" + tag, false,
                         /*stop_after_steps=*/sample_steps + 1, nullptr,
                         threads);
    const uint64_t root_entries = prefetched->Value() - before;
    obs::EnableMetrics(false);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().completed);
    EXPECT_GE(root_entries, 1u) << "threads=" << threads;
  }
}

/// Multi-step chain fixture for the parallel-commit sweeps: enough FOJ
/// samples for a partition fan-out of 2 under the cap, but a large batch so
/// the whole plan stays below ~20 steps and a kill-at-every-step sweep is
/// affordable.
std::unique_ptr<SamModel> MakeParallelCommitModel(const Database& db) {
  SamOptions opt;
  opt.foj_samples = 8192;
  opt.generation_batch = 2048;         // 4 sample steps.
  opt.memory_cap_bytes = 4ll << 20;    // Partition fan-out 2.
  return MakeChainModel(db, opt);
}

// Suite name contains "Parallel" so the TSan CI job picks it up.
TEST(ParallelCommitTest, KillAtEveryStepIsByteIdenticalAcrossCommitThreads) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeParallelCommitModel(db);
  const std::string root = TempDir("sam_pipe_parallel_commit");
  std::filesystem::create_directories(root + "/scratch");

  // Golden: the fully serial reference (threads = 1 also disables the
  // lookahead).
  auto serial = RunPipeline(*sam, root + "/golden", root + "/gwork", false, 0,
                            nullptr, /*threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial.ValueOrDie().completed);
  const auto golden = ReadTree(root + "/golden");
  const uint64_t steps = serial.ValueOrDie().steps_total;
  ASSERT_GT(steps, 10u);

  // Full parallel run publishes identical bytes — and the commit gauge
  // proves that a partition's phase B ran next to a lookahead entry.
  obs::EnableMetrics(true);
  auto full = RunPipeline(*sam, root + "/out_full", root + "/w_full", false, 0,
                          nullptr, /*threads=*/4);
  obs::EnableMetrics(false);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(ReadTree(root + "/out_full"), golden);
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetGauge("sam.gen.commit_parallelism")
                ->Value(),
            2.0);

  // Kill at every step under both thread counts: the surviving work dirs
  // (spill files + checkpoints) must match, and resuming the parallel run
  // must still publish the golden bytes.
  for (uint64_t s = 1; s < steps; ++s) {
    const std::string w1 = root + "/w1_" + std::to_string(s);
    const std::string w4 = root + "/w4_" + std::to_string(s);
    const std::string out = root + "/out_" + std::to_string(s);
    auto p1 = RunPipeline(*sam, root + "/unused_out", w1, false, s, nullptr,
                          /*threads=*/1);
    ASSERT_TRUE(p1.ok()) << "stop=" << s << ": " << p1.status().ToString();
    auto p4 = RunPipeline(*sam, out, w4, false, s, nullptr, /*threads=*/4);
    ASSERT_TRUE(p4.ok()) << "stop=" << s << ": " << p4.status().ToString();
    ExpectWorkTreesEquivalent(w1, w4, root + "/scratch",
                              "stop=" + std::to_string(s));

    auto rest = RunPipeline(*sam, out, w4, /*resume=*/true, 0, nullptr,
                            /*threads=*/4);
    ASSERT_TRUE(rest.ok()) << "stop=" << s << ": " << rest.status().ToString();
    ASSERT_TRUE(rest.ValueOrDie().completed) << "stop=" << s;
    EXPECT_EQ(ReadTree(out), golden) << "stop=" << s;
    std::filesystem::remove_all(w1);
    std::filesystem::remove_all(out);
  }
}

TEST(ParallelCommitTest, MemoryCapHoldsForEveryThreadCount) {
  // Property: lookahead reservations must never push the
  // budget past the cap, whatever the parallelism — the budget itself is the
  // oracle (every structure reserves before allocating, and Reserve fails
  // hard past the cap), so peak <= cap proves the parallel paths stayed
  // within their pre-reserved envelopes.
  const Database db = MakeChainDatabase();
  const auto sam = MakeParallelCommitModel(db);
  const int64_t cap = sam->options().memory_cap_bytes;
  const std::string root = TempDir("sam_pipe_parallel_cap");

  size_t variant = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    const std::string suffix = std::to_string(variant++);
    auto r = RunPipeline(*sam, root + "/out" + suffix, root + "/w" + suffix,
                         false, 0, nullptr, threads);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
    ASSERT_TRUE(r.ValueOrDie().completed) << "threads=" << threads;
    EXPECT_GT(r.ValueOrDie().peak_reserved, 0) << "threads=" << threads;
    EXPECT_LE(r.ValueOrDie().peak_reserved, cap) << "threads=" << threads;
  }
}

// The FOJ spill is read once per run: the preamble loads every chunk, fills
// the weights and the resident code store, and no relation loads it again.
TEST(GenerationPipelineTest, FreshRunReadsTheFojSpillOnce) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeParallelCommitModel(db);  // Fan-out 2, 4 batches.
  const std::string root = TempDir("sam_pipe_one_read");
  const uint64_t batch = sam->options().generation_batch;
  const uint64_t sample_batches =
      (sam->options().foj_samples + batch - 1) / batch;
  ASSERT_GE(sample_batches, 2u);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* files = reg.GetCounter("sam.generate.spill_read_files");
  obs::Counter* bytes = reg.GetCounter("sam.generate.spill_read_bytes");

  // Through the root's first partition step the run has read the FOJ
  // chunks and nothing else (root virtuals are implicit): one load each.
  obs::EnableMetrics(true);
  uint64_t before = files->Value();
  auto part = RunPipeline(*sam, root + "/out", root + "/w_part", false,
                          /*stop_after_steps=*/sample_batches + 1);
  const uint64_t foj_reads = files->Value() - before;
  obs::EnableMetrics(false);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  ASSERT_FALSE(part.ValueOrDie().completed);
  EXPECT_EQ(foj_reads, sample_batches);

  // A whole run reads each spill file at most once: virtual chunks in phase
  // A, leftover sets and summaries in pass 2, row chunks in assembly.
  GenerationPipelineOptions o;
  o.out_dir = root + "/out";
  o.work_dir = root + "/w_full";
  o.keep_work_dir = true;
  obs::EnableMetrics(true);
  before = files->Value();
  const uint64_t bytes_before = bytes->Value();
  auto full = GenerationPipeline(sam.get(), o).Run();
  const uint64_t reads = files->Value() - before;
  const uint64_t read_bytes = bytes->Value() - bytes_before;
  obs::EnableMetrics(false);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full.ValueOrDie().completed);
  std::string path;
  auto ckpt = LoadLatestValidGenerationCheckpoint(root + "/w_full", &path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  const auto& manifest = ckpt.ValueOrDie().manifest;
  EXPECT_GE(reads, sample_batches);
  EXPECT_LE(reads, manifest.size());
  EXPECT_GT(read_bytes, 0u);
  EXPECT_LE(read_bytes, ckpt.ValueOrDie().spill_bytes);
}

/// Rewrites spill chunk `path` through `edit` into a CRC-valid chunk that
/// must keep the file's size, so only a content check can refuse it.
template <typename Chunk, typename Edit>
void SwapChunk(const std::string& path, Edit edit) {
  const auto size = std::filesystem::file_size(path);
  auto chunk = Chunk::Load(path);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  Chunk swapped = chunk.MoveValue();
  edit(&swapped);
  ASSERT_TRUE(swapped.Save(path).ok());
  ASSERT_EQ(std::filesystem::file_size(path), size);
}

// A resumed run checks the shape of what it reads back: CRC-valid spill
// chunks of the right size but another shape fail cleanly instead of
// indexing past the weights and the code store.
TEST(GenerationPipelineTest, ResumeRefusesSpillChunksOfAnotherShape) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_foreign_chunk");
  const uint64_t batch = sam->options().generation_batch;
  const uint64_t k = sam->options().foj_samples;
  const uint64_t sample_batches = (k + batch - 1) / batch;
  const std::string last_foj =
      "foj_" + std::string(6 - std::to_string(sample_batches - 1).size(), '0') +
      std::to_string(sample_batches - 1) + ".spill";
  const size_t domain = sam->schema().columns()[0].domain_size;

  // Each case stops a fresh run after `stop` steps, swaps one chunk and
  // resumes. The plan runs the sample steps, then A's partition and pass
  // 2 (writing B's virtuals), then B's partition (writing B's leftovers).
  struct Case {
    const char* what;
    uint64_t stop;
    std::string chunk;
    std::function<void(const std::string&)> swap;
  };
  const std::vector<Case> cases = {
      {"FOJ chunk of another batch", sample_batches, "foj_000000.spill",
       [](const std::string& p) {
         SwapChunk<FojChunk>(p, [](FojChunk* c) { c->batch_index += 1; });
       }},
      {"FOJ chunk of one long column", sample_batches, last_foj,
       [](const std::string& p) {
         SwapChunk<FojChunk>(p, [](FojChunk* c) {
           std::vector<int32_t> flat;
           for (const auto& col : c->codes) {
             flat.insert(flat.end(), col.begin(), col.end());
           }
           c->rows = flat.size();
           c->codes = {flat};
         });
       }},
      {"FOJ code outside its domain", sample_batches, last_foj,
       [domain](const std::string& p) {
         SwapChunk<FojChunk>(p, [domain](FojChunk* c) {
           c->codes[0].back() = static_cast<int32_t>(domain);
         });
       }},
      {"virtual of an unknown sample", sample_batches + 2,
       "virt_B_p000_000000.spill",
       [k](const std::string& p) {
         SwapChunk<VirtualChunk>(p, [k](VirtualChunk* c) {
           c->records.back().sample = static_cast<uint32_t>(k + 5);
         });
       }},
      {"leftover of an unknown sample", sample_batches + 3,
       "left_B_p000.spill",
       [k](const std::string& p) {
         SwapChunk<LeftoverChunk>(p, [k](LeftoverChunk* c) {
           c->sets.front().members.front().sample = static_cast<uint32_t>(k);
         });
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string work = root + "/work";
    std::filesystem::remove_all(work);
    auto part = RunPipeline(*sam, root + "/out", work, false, c.stop);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    ASSERT_FALSE(part.ValueOrDie().completed);
    ASSERT_TRUE(std::filesystem::exists(work + "/" + c.chunk)) << c.chunk;
    c.swap(work + "/" + c.chunk);
    if (::testing::Test::HasFatalFailure()) return;

    auto r = RunPipeline(*sam, root + "/out", work, /*resume=*/true);
    if (r.ok()) {  // Keep going: every case must be refused.
      ADD_FAILURE() << "the resumed run accepted the swapped chunk";
      std::filesystem::remove_all(root + "/out");
      continue;
    }
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find(c.chunk), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().ToString().find("work directory was modified"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(root + "/out"));
  }
}

TEST(GenerationPipelineTest, TooTightCapFailsCleanlyNotOom) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  options.memory_cap_bytes = 512;  // Below any per-relation floor.
  const auto sam = MakeChainModel(db, options);
  const std::string root = TempDir("sam_pipe_tiny");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("memory cap exceeded"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(root + "/out"));

  // Multi-relation Generate() runs the same pipeline in a private directory
  // under TMPDIR: it fails the same way and leaves no directory behind.
  const std::string tmp = root + "/tmp";
  std::filesystem::create_directories(tmp);
  const char* prev = std::getenv("TMPDIR");
  const std::string prev_tmpdir = prev != nullptr ? prev : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);
  auto gen = sam->Generate();
  if (prev != nullptr) {
    ::setenv("TMPDIR", prev_tmpdir.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument)
      << gen.status().ToString();
  EXPECT_TRUE(std::filesystem::is_empty(tmp));
}

TEST(GenerationPipelineTest, OversizedFojSampleCountFailsBeforePlanning) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  // Its weight arrays alone (relations x k doubles) need 1.6e18 bytes, and
  // the plan would hold ~6e15 sample steps.
  options.foj_samples = 100000000000000000ull;
  const auto sam = MakeChainModel(db, options);
  const std::string root = TempDir("sam_pipe_huge_k");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("memory cap exceeded"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("per-relation weight arrays"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(root + "/out"));
  EXPECT_FALSE(std::filesystem::exists(root + "/work"));
}

/// Two relations with DOUBLE content: P(id pk, x) <- C(pid fk, y).
Database MakeDoubleDatabase() {
  Rng rng(41);
  std::vector<Value> ids, xs, pids, ys;
  for (int64_t i = 0; i < 40; ++i) {
    ids.emplace_back(i);
    xs.emplace_back(rng.Uniform(0.0, 1000.0));
    for (int64_t c = rng.UniformInt(0, 3); c > 0; --c) {
      pids.emplace_back(i);
      ys.emplace_back(rng.Uniform(-5.0, 5.0));
    }
  }
  Database db;
  Table p("P");
  SAM_CHECK_OK(p.AddColumn(Column::FromValues("id", ColumnType::kInt, ids)));
  SAM_CHECK_OK(p.AddColumn(Column::FromValues("x", ColumnType::kDouble, xs)));
  SAM_CHECK_OK(p.SetPrimaryKey("id"));
  SAM_CHECK_OK(db.AddTable(std::move(p)));
  Table c("C");
  SAM_CHECK_OK(c.AddColumn(Column::FromValues("pid", ColumnType::kInt, pids)));
  SAM_CHECK_OK(c.AddColumn(Column::FromValues("y", ColumnType::kDouble, ys)));
  SAM_CHECK_OK(c.AddForeignKey(ForeignKey{"pid", "P", "id"}));
  SAM_CHECK_OK(db.AddTable(std::move(c)));
  SAM_CHECK_OK(db.ValidateIntegrity());
  return db;
}

TEST(GenerationPipelineTest, DoubleColumnsPublishFullPrecision) {
  const Database db = MakeDoubleDatabase();
  auto exec = Executor::Create(&db).MoveValue();
  Workload train;
  for (double lit : {100.0, 250.5, 600.25, 900.0}) {
    Query q;
    q.relations = {"P"};
    q.predicates = {Predicate{"P", "x", PredOp::kLe, Value(lit), {}}};
    q.cardinality = exec->Cardinality(q).ValueOrDie();
    train.push_back(q);
  }
  for (double lit : {-2.5, 0.0, 3.75}) {
    Query q;
    q.relations = {"P", "C"};
    q.predicates = {Predicate{"C", "y", PredOp::kLe, Value(lit), {}}};
    q.cardinality = exec->Cardinality(q).ValueOrDie();
    train.push_back(q);
  }
  SchemaHints hints;
  hints.numeric_columns = {"P.x", "C.y"};
  hints.numeric_bounds["P.x"] = {0.0, 1000.0};
  hints.numeric_bounds["C.y"] = {-5.0, 5.0};
  SamOptions options;
  options.foj_samples = 8000;
  options.memory_cap_bytes = 4ll << 20;  // Two partitions: a lookahead entry.
  auto sam =
      SamModel::Create(db, train, hints, exec->FullOuterJoinSize(), options);
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  // Serial and prefetched partitions share one row renderer: both must
  // publish the same bytes.
  const std::string root = TempDir("sam_pipe_double");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string suffix = std::to_string(threads);
    auto r = RunPipeline(*sam.ValueOrDie(), root + "/out" + suffix,
                         root + "/work" + suffix, false, 0, nullptr, threads);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
  }
  const auto published = ReadTree(root + "/out1");
  EXPECT_EQ(published, ReadTree(root + "/out4"));

  // Every DOUBLE field is the shortest text of its value (it parses back to
  // the same bits), and values carry more than %g's 6 significant digits.
  size_t fields = 0;
  size_t beyond_six_digits = 0;
  for (const char* rel : {"P", "C"}) {
    std::istringstream csv(published.at(std::string(rel) + ".csv"));
    std::string line;
    std::getline(csv, line);  // Header.
    while (std::getline(csv, line)) {
      const std::string field = line.substr(line.find(',') + 1);
      if (field.empty()) continue;  // NULL.
      const double v = std::strtod(field.c_str(), nullptr);
      std::string rendered;
      AppendCsvField(Value(v), &rendered);
      EXPECT_EQ(rendered, field) << rel;
      size_t digits = 0;
      for (char ch : field.substr(0, field.find('e'))) {
        if (ch >= '0' && ch <= '9') digits++;
      }
      if (digits > 7) beyond_six_digits++;
      fields++;
    }
  }
  EXPECT_GT(fields, 0u);
  EXPECT_GT(beyond_six_digits, fields / 2);
}

/// Untrained census-like single-relation model with numeric (bucketed)
/// columns, whose decode draws from the RNG.
std::unique_ptr<SamModel> MakeCensusModel(const Database& db,
                                          const SamOptions& options) {
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 60;
  wopts.max_filters = 2;
  wopts.seed = 5;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  auto sam = SamModel::Create(db, train, hints,
                              static_cast<int64_t>(db.tables()[0].num_rows()),
                              options);
  SAM_CHECK_OK(sam.status());
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  return sam.MoveValue();
}

TEST(GenerationPipelineTest, SingleRelationResumeSweepIsByteIdentical) {
  Database db = MakeCensusLike(600, 71);
  SamOptions options;
  options.generation_batch = 200;  // 600 rows -> 3 sample steps.
  auto sam = MakeCensusModel(db, options);

  const std::string root = TempDir("sam_pipe_single");
  auto golden_run = RunPipeline(*sam, root + "/golden",
                                root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const auto golden = ReadTree(root + "/golden");
  const uint64_t steps = golden_run.ValueOrDie().steps_total;
  ASSERT_GE(steps, 5u);  // 3 sample + assemble + publish.

  auto gen = LoadDatabase(root + "/golden");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("census")->num_rows(), 600u);

  for (uint64_t s = 1; s < steps; ++s) {
    std::filesystem::remove_all(root + "/out");
    auto part =
        RunPipeline(*sam, root + "/out", root + "/work", false, s);
    ASSERT_TRUE(part.ok()) << "stop=" << s << ": " << part.status().ToString();
    ASSERT_FALSE(part.ValueOrDie().completed) << "stop=" << s;
    auto rest =
        RunPipeline(*sam, root + "/out", root + "/work", true);
    ASSERT_TRUE(rest.ok()) << "stop=" << s << ": " << rest.status().ToString();
    EXPECT_EQ(ReadTree(root + "/out"), golden) << "stop=" << s;
  }
}

// Alg 1 has one decoder: in-RAM single-relation `Generate` must equal the
// database the pipeline publishes, cell for cell, for every thread count —
// also when a cap this tight flushes row chunks in the middle of a batch.
TEST(GenerationPipelineTest, InRamSingleRelationGenerateEqualsPublished) {
  Database db = MakeCensusLike(6000, 71);
  const std::string root = TempDir("sam_pipe_inram");
  for (size_t threads : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SamOptions options;
    options.generation_threads = threads;
    options.generation_batch = 2000;       // About 88 KB of CSV per batch,
    options.memory_cap_bytes = 1ll << 20;  // but row chunks flush at 64 KiB.
    auto sam = MakeCensusModel(db, options);
    auto in_ram = sam->Generate();
    ASSERT_TRUE(in_ram.ok()) << in_ram.status().ToString();

    const std::string out = root + "/out" + std::to_string(threads);
    auto run = RunPipeline(*sam, out, root + "/work", false, 0, nullptr,
                           threads);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const size_t batches = 6000 / options.generation_batch;
    ASSERT_GT(std::filesystem::file_size(out + "/census.csv"),
              batches * (64u << 10))
        << "a batch must outgrow the row-chunk flush threshold";
    auto published = LoadDatabase(out);
    ASSERT_TRUE(published.ok()) << published.status().ToString();

    const Table* a = in_ram.ValueOrDie().FindTable("census");
    const Table* b = published.ValueOrDie().FindTable("census");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->num_rows(), 6000u);
    ASSERT_EQ(b->num_rows(), a->num_rows());
    ASSERT_EQ(b->columns().size(), a->columns().size());
    for (size_t c = 0; c < a->columns().size(); ++c) {
      const Column& ca = a->columns()[c];
      const Column& cb = b->columns()[c];
      ASSERT_EQ(ca.name(), cb.name());
      ASSERT_EQ(ca.type(), cb.type()) << ca.name();
      for (size_t r = 0; r < ca.num_rows(); ++r) {
        ASSERT_EQ(ca.ValueAt(r), cb.ValueAt(r))
            << ca.name() << " row " << r << ": " << ca.ValueAt(r).ToString()
            << " vs " << cb.ValueAt(r).ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-injection sweep: the artifact seam is global, so every spill /
// checkpoint / publish write in the run sees the configured fault.
// ---------------------------------------------------------------------------

class GenerationPipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeChainDatabase();
    sam_ = MakeChainModel(db_, SamOptions{});
    // Unique per test: ctest runs each case as its own process, potentially
    // concurrently, so a shared fixture directory would be clobbered.
    const std::string dir =
        std::string("sam_pipe_fault_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = TempDir(dir.c_str());
    auto golden =
        RunPipeline(*sam_, root_ + "/golden", root_ + "/gwork", false);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  }
  void TearDown() override {
    ClearArtifactFaultInjectionForTest();
    obs::EnableMetrics(false);
  }

  /// Runs fresh under the configured fault, expects failure with `code`,
  /// clears the fault and proves a clean re-run still lands the golden bytes.
  void ExpectFailThenRecover(const ArtifactFaultInjection& f, StatusCode code) {
    SetArtifactFaultInjectionForTest(f);
    auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code) << r.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(root_ + "/out"));
    ClearArtifactFaultInjectionForTest();

    auto rerun = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
    std::filesystem::remove_all(root_ + "/out");
    std::filesystem::remove_all(root_ + "/work");
  }

  Database db_;
  std::unique_ptr<SamModel> sam_;
  std::string root_;
};

TEST_F(GenerationPipelineFaultTest, TransientWriteFailuresAreRetriedToGolden) {
  obs::EnableMetrics(true);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.retries_total");
  const uint64_t before = retries->Value();

  ArtifactFaultInjection f;
  f.transient_failures = 2;  // First commit hiccups twice, then succeeds.
  SetArtifactFaultInjectionForTest(f);
  auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ClearArtifactFaultInjectionForTest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().completed);
  EXPECT_EQ(retries->Value(), before + 2);
  EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
}

TEST_F(GenerationPipelineFaultTest, HardWriteCrashFailsCleanThenRecovers) {
  ArtifactFaultInjection f;
  f.fail_write_at_byte = 10;  // Crash 10 bytes into every spill write.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, EnospcFailsCleanWithNoStagedFiles) {
  ArtifactFaultInjection f;
  f.enospc = true;
  SetArtifactFaultInjectionForTest(f);
  auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("No space left"), std::string::npos)
      << r.status().ToString();
  // A full disk is a reported error, not a crash: no staged temp files leak.
  EXPECT_FALSE(HasTmpFiles(root_ + "/work"));
  EXPECT_FALSE(std::filesystem::exists(root_ + "/out"));
  ClearArtifactFaultInjectionForTest();

  auto rerun = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
}

TEST_F(GenerationPipelineFaultTest, TornRenameFailsCleanThenRecovers) {
  ArtifactFaultInjection f;
  f.torn_rename = true;  // Crash after fsync, before the rename lands.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, SilentTruncationIsDetectedOnReadBack) {
  // truncate_on_close "succeeds" while tearing every file; the pipeline must
  // catch the corruption when the chunk is read back, never decode from it.
  ArtifactFaultInjection f;
  f.truncate_on_close = true;
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, SilentBitRotIsDetectedOnReadBack) {
  ArtifactFaultInjection f;
  f.bit_flip_at_byte = 40;  // Payload corruption after a successful commit.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

}  // namespace
}  // namespace sam
