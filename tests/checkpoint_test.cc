// Fault-tolerance tests for the training pipeline: bit-identical
// interrupt/resume, checkpoint corruption fallback across every injected
// failure mode, config-fingerprint guards, and the MadeModel::Load
// partial-fill regression.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "ar/dps_trainer.h"
#include "ar/made.h"
#include "ar/training_checkpoint.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "storage/artifact_io.h"
#include "workload/generator.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

struct Env {
  Database db;
  std::unique_ptr<Executor> exec;
  Workload train;
  ModelSchema schema;
};

/// Shared, built once: a small census slice so each training run is fast.
Env* SharedEnv() {
  static Env* env = [] {
    auto* s = new Env();
    s->db = MakeCensusLike(300, 311);
    s->exec = Executor::Create(&s->db).MoveValue();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 60;
    wopts.max_filters = 2;
    wopts.seed = 7;
    s->train = GenerateSingleRelationWorkload(s->db, "census", *s->exec, wopts)
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
    s->schema = ModelSchema::Build(s->db, s->train, hints, 300).MoveValue();
    return s;
  }();
  return env;
}

MadeModel::Options SmallModelOptions(uint64_t seed = 4) {
  MadeModel::Options opts;
  opts.hidden_sizes = {8, 8};
  opts.seed = seed;
  return opts;
}

DpsOptions SmallTrainOptions() {
  DpsOptions o;
  o.epochs = 3;
  o.batch_size = 16;
  o.sample_paths = 1;
  o.seed = 123;
  return o;
}

std::vector<Matrix> Snapshot(const MadeModel& model) {
  std::vector<Matrix> out;
  for (const auto& p : model.params()) out.push_back(p.value());
  return out;
}

/// Bitwise parameter equality (memcmp, not double ==): the resume contract
/// is bit-identical arithmetic, not approximate recovery.
void ExpectBitIdentical(const MadeModel& model,
                        const std::vector<Matrix>& golden) {
  const auto params = model.params();
  ASSERT_EQ(params.size(), golden.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& a = params[i].value();
    const Matrix& b = golden[i];
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "parameter tensor " << i << " diverged";
  }
}

/// Trains a fresh model to completion with no checkpointing: the golden run.
std::vector<Matrix> GoldenParams(const DpsOptions& options,
                                 std::vector<DpsEpochStats>* stats_out = nullptr) {
  Env* env = SharedEnv();
  MadeModel model(&env->schema, SmallModelOptions());
  DpsOptions o = options;
  o.checkpoint_dir.clear();
  o.resume = false;
  auto stats = TrainDps(&model, env->train, o);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats_out != nullptr) *stats_out = stats.ValueOrDie();
  return Snapshot(model);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearArtifactFaultInjectionForTest(); }
};

// ---- DpsOptions validation (fail fast, before any work) --------------------

TEST_F(CheckpointTest, ValidateDpsOptionsRejectsBadValues) {
  const auto expect_invalid = [](DpsOptions o, const char* what) {
    const Status st = ValidateDpsOptions(o);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  };
  EXPECT_TRUE(ValidateDpsOptions(DpsOptions()).ok());

  DpsOptions o;
  o.epochs = 0;
  expect_invalid(o, "epochs=0");
  o = DpsOptions();
  o.batch_size = 0;
  expect_invalid(o, "batch_size=0");
  o = DpsOptions();
  o.sample_paths = 0;
  expect_invalid(o, "sample_paths=0");
  o = DpsOptions();
  o.learning_rate = std::nan("");
  expect_invalid(o, "nan lr");
  o = DpsOptions();
  o.learning_rate = std::numeric_limits<double>::infinity();
  expect_invalid(o, "inf lr");
  o = DpsOptions();
  o.learning_rate = 0;
  expect_invalid(o, "lr=0");
  o = DpsOptions();
  o.learning_rate = -1;
  expect_invalid(o, "negative lr");
  o = DpsOptions();
  o.gumbel_tau = 0;
  expect_invalid(o, "gumbel_tau=0");
  o = DpsOptions();
  o.gumbel_tau = std::nan("");
  expect_invalid(o, "nan gumbel_tau");
  o = DpsOptions();
  o.gumbel_tau_final = -1;
  expect_invalid(o, "negative gumbel_tau_final");
  o = DpsOptions();
  o.clip_norm = -1;
  expect_invalid(o, "negative clip_norm");
  o = DpsOptions();
  o.time_budget_seconds = -5;
  expect_invalid(o, "negative time budget");
  o = DpsOptions();
  o.checkpoint_dir = "/tmp/x";
  o.checkpoint_every_epochs = 0;
  expect_invalid(o, "checkpoint_every_epochs=0");
  o = DpsOptions();
  o.resume = true;
  expect_invalid(o, "resume without checkpoint_dir");
}

TEST_F(CheckpointTest, TrainDpsPropagatesOptionValidation) {
  Env* env = SharedEnv();
  MadeModel model(&env->schema, SmallModelOptions());
  DpsOptions o = SmallTrainOptions();
  o.batch_size = 0;
  auto stats = TrainDps(&model, env->train, o);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// ---- Checkpoint serialization ---------------------------------------------

TEST_F(CheckpointTest, CheckpointRoundTripsAllFields) {
  const std::string path = TempDir("sam_ckpt_rt") + "/c.ckpt";
  TrainingCheckpoint c;
  c.fingerprint = 0x1234abcd5678ull;
  c.epoch = 3;
  c.step_start = 48;
  c.in_epoch = true;
  c.seconds_elapsed = 12.5;
  c.epoch_loss_sum = 7.25;
  c.epoch_loss_count = 4;
  c.epoch_processed = 40;
  c.rng_state = "123 456 789";
  c.order = {2, 0, 1, 3};
  c.adam_step_count = 17;
  c.adam_lr = 1e-3;
  c.adam_m = {Matrix(2, 2, 0.5)};
  c.adam_v = {Matrix(2, 2, 0.25)};
  c.params = {Matrix(2, 2, -1.5)};
  DpsEpochStats es;
  es.epoch = 2;
  es.mean_loss = 0.125;
  es.seconds_elapsed = 9.0;
  es.queries_processed = 60;
  c.stats = {es};
  ASSERT_TRUE(c.Save(path).ok());

  auto back = TrainingCheckpoint::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const TrainingCheckpoint& r = back.ValueOrDie();
  EXPECT_EQ(r.fingerprint, c.fingerprint);
  EXPECT_EQ(r.epoch, 3u);
  EXPECT_EQ(r.step_start, 48u);
  EXPECT_TRUE(r.in_epoch);
  EXPECT_EQ(r.seconds_elapsed, 12.5);
  EXPECT_EQ(r.epoch_loss_sum, 7.25);
  EXPECT_EQ(r.epoch_loss_count, 4u);
  EXPECT_EQ(r.epoch_processed, 40u);
  EXPECT_EQ(r.rng_state, "123 456 789");
  EXPECT_EQ(r.order, (std::vector<uint64_t>{2, 0, 1, 3}));
  EXPECT_EQ(r.adam_step_count, 17);
  EXPECT_EQ(r.adam_lr, 1e-3);
  ASSERT_EQ(r.params.size(), 1u);
  EXPECT_EQ(r.params[0](1, 1), -1.5);
  ASSERT_EQ(r.stats.size(), 1u);
  EXPECT_EQ(r.stats[0].mean_loss, 0.125);
  EXPECT_EQ(r.stats[0].queries_processed, 60u);
}

TEST_F(CheckpointTest, FingerprintSeparatesConfigs) {
  Env* env = SharedEnv();
  MadeModel model(&env->schema, SmallModelOptions());
  const DpsOptions base = SmallTrainOptions();
  const uint64_t fp = TrainingFingerprint(base, model, env->train);
  EXPECT_EQ(fp, TrainingFingerprint(base, model, env->train));

  DpsOptions other = base;
  other.seed = 124;
  EXPECT_NE(fp, TrainingFingerprint(other, model, env->train));
  other = base;
  other.learning_rate *= 2;
  EXPECT_NE(fp, TrainingFingerprint(other, model, env->train));
  // Checkpoint plumbing must NOT change the fingerprint: it never changes
  // the arithmetic, and resume across it must be allowed.
  other = base;
  other.checkpoint_dir = "/somewhere/else";
  other.checkpoint_keep = 9;
  other.resume = true;
  EXPECT_EQ(fp, TrainingFingerprint(other, model, env->train));
  // Nor must the thread count: the bits depend on kDpsShards only.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    other = base;
    other.threads = threads;
    EXPECT_EQ(fp, TrainingFingerprint(other, model, env->train)) << threads;
  }

  MadeModel wider(&env->schema, SmallModelOptions(/*seed=*/5));
  EXPECT_NE(fp, TrainingFingerprint(base, wider, env->train));
}

// ---- The headline guarantee: interrupted + resumed == uninterrupted --------

TEST_F(CheckpointTest, ResumeAfterEpochBoundaryStopIsBitIdentical) {
  Env* env = SharedEnv();
  const DpsOptions base = SmallTrainOptions();
  std::vector<DpsEpochStats> golden_stats;
  const std::vector<Matrix> golden = GoldenParams(base, &golden_stats);

  const std::string dir = TempDir("sam_resume_boundary");
  std::atomic<bool> stop{false};
  DpsOptions o = base;
  o.checkpoint_dir = dir;
  o.stop_flag = &stop;
  {
    MadeModel model(&env->schema, SmallModelOptions());
    auto stats = TrainDps(&model, env->train, o,
                          [&stop](const DpsEpochStats& s) {
                            if (s.epoch + 1 >= 2) stop.store(true);
                          });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Stopped after 2 of 3 epochs; the partial epoch reports no stats entry.
    EXPECT_EQ(stats.ValueOrDie().size(), 2u);
  }
  ASSERT_FALSE(ListCheckpointFiles(dir).empty());

  stop.store(false);
  o.resume = true;
  MadeModel resumed(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&resumed, env->train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectBitIdentical(resumed, golden);
  // Resumed runs report the full epoch history, bit-equal losses included.
  ASSERT_EQ(stats.ValueOrDie().size(), golden_stats.size());
  for (size_t i = 0; i < golden_stats.size(); ++i) {
    EXPECT_EQ(stats.ValueOrDie()[i].mean_loss, golden_stats[i].mean_loss);
    EXPECT_EQ(stats.ValueOrDie()[i].queries_processed,
              golden_stats[i].queries_processed);
  }
}

TEST_F(CheckpointTest, ResumeAfterMidEpochStopIsBitIdentical) {
  Env* env = SharedEnv();
  const DpsOptions base = SmallTrainOptions();
  std::vector<DpsEpochStats> golden_stats;
  const std::vector<Matrix> golden = GoldenParams(base, &golden_stats);

  const std::string dir = TempDir("sam_resume_midepoch");
  std::atomic<bool> stop{false};
  DpsOptions o = base;
  o.checkpoint_dir = dir;
  o.stop_flag = &stop;
  // Stop deep inside epoch 1 (steps are 0,16,32,48 on 60 examples).
  o.step_hook = [&stop](size_t epoch, size_t step) {
    if (epoch == 1 && step == 32) stop.store(true);
  };
  {
    MadeModel model(&env->schema, SmallModelOptions());
    auto stats = TrainDps(&model, env->train, o);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.ValueOrDie().size(), 1u);  // Only epoch 0 completed.
  }

  stop.store(false);
  o.step_hook = nullptr;
  o.resume = true;
  MadeModel resumed(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&resumed, env->train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectBitIdentical(resumed, golden);
  // The resumed half-epoch accumulators must reproduce epoch 1's exact loss.
  ASSERT_EQ(stats.ValueOrDie().size(), golden_stats.size());
  EXPECT_EQ(stats.ValueOrDie()[1].mean_loss, golden_stats[1].mean_loss);
}

TEST_F(CheckpointTest, ResumeAcrossThreadCountsIsBitIdentical) {
  // Interrupted on 4 workers, resumed inline: the shard-ordered reduction
  // makes the thread count invisible in the bits, and it is not in the
  // fingerprint, so the resume is accepted and matches the golden run.
  Env* env = SharedEnv();
  DpsOptions base = SmallTrainOptions();
  base.threads = 1;
  const std::vector<Matrix> golden = GoldenParams(base);

  const std::string dir = TempDir("sam_resume_threads");
  std::atomic<bool> stop{false};
  DpsOptions o = base;
  o.threads = 4;
  o.checkpoint_dir = dir;
  o.stop_flag = &stop;
  o.step_hook = [&stop](size_t epoch, size_t step) {
    if (epoch == 1 && step == 32) stop.store(true);
  };
  {
    MadeModel model(&env->schema, SmallModelOptions());
    auto stats = TrainDps(&model, env->train, o);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.ValueOrDie().size(), 1u);
  }

  stop.store(false);
  o.step_hook = nullptr;
  o.threads = 1;
  o.resume = true;
  MadeModel resumed(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&resumed, env->train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectBitIdentical(resumed, golden);
}

TEST_F(CheckpointTest, ResumeOfCompletedRunRestoresWithoutTraining) {
  Env* env = SharedEnv();
  const DpsOptions base = SmallTrainOptions();
  const std::vector<Matrix> golden = GoldenParams(base);

  const std::string dir = TempDir("sam_resume_done");
  DpsOptions o = base;
  o.checkpoint_dir = dir;
  {
    MadeModel model(&env->schema, SmallModelOptions());
    ASSERT_TRUE(TrainDps(&model, env->train, o).ok());
  }
  o.resume = true;
  MadeModel resumed(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&resumed, env->train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().size(), base.epochs);
  ExpectBitIdentical(resumed, golden);
}

TEST_F(CheckpointTest, ResumeFromEmptyDirStartsFreshAndMatchesGolden) {
  Env* env = SharedEnv();
  const DpsOptions base = SmallTrainOptions();
  const std::vector<Matrix> golden = GoldenParams(base);

  DpsOptions o = base;
  o.checkpoint_dir = TempDir("sam_resume_fresh");
  o.resume = true;  // Nothing to resume: NotFound is a clean fresh start.
  MadeModel model(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&model, env->train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectBitIdentical(model, golden);
}

TEST_F(CheckpointTest, ResumeRejectsMismatchedConfiguration) {
  Env* env = SharedEnv();
  const std::string dir = TempDir("sam_resume_mismatch");
  DpsOptions o = SmallTrainOptions();
  o.checkpoint_dir = dir;
  {
    MadeModel model(&env->schema, SmallModelOptions());
    ASSERT_TRUE(TrainDps(&model, env->train, o).ok());
  }
  o.resume = true;
  o.learning_rate *= 2;  // Same checkpoint dir, different arithmetic.
  MadeModel model(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&model, env->train, o);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// ---- Fault sweep: every injected failure mode must recover to golden -------

TEST_F(CheckpointTest, EveryFaultModeRecoversToGoldenOnResume) {
  Env* env = SharedEnv();
  const DpsOptions base = SmallTrainOptions();
  const std::vector<Matrix> golden = GoldenParams(base);

  struct Mode {
    const char* name;
    ArtifactFaultInjection faults;
    bool commit_reports_error;  // Crash-like faults fail TrainDps itself.
  };
  std::vector<Mode> modes(4);
  modes[0].name = "fail_mid_write";
  modes[0].faults.fail_write_at_byte = 64;
  modes[0].commit_reports_error = true;
  modes[1].name = "torn_rename";
  modes[1].faults.torn_rename = true;
  modes[1].commit_reports_error = true;
  modes[2].name = "truncate_on_close";
  modes[2].faults.truncate_on_close = true;
  modes[2].commit_reports_error = false;
  modes[3].name = "bit_flip";
  modes[3].faults.bit_flip_at_byte = 1000;
  modes[3].commit_reports_error = false;

  for (Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    const std::string dir =
        TempDir((std::string("sam_fault_sweep_") + mode.name).c_str());
    DpsOptions o = base;
    o.checkpoint_dir = dir;
    o.checkpoint_keep = 0;  // Keep everything so fallback has candidates.
    {
      MadeModel model(&env->schema, SmallModelOptions());
      // Let the first checkpoint land, then corrupt/crash all later ones.
      mode.faults.skip_commits = 1;
      SetArtifactFaultInjectionForTest(mode.faults);
      auto stats = TrainDps(&model, env->train, o);
      ClearArtifactFaultInjectionForTest();
      if (mode.commit_reports_error) {
        // The simulated crash surfaces as the training run dying.
        ASSERT_FALSE(stats.ok());
        EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
      } else {
        // Silent corruption: the run believes it succeeded.
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      }
    }
    // Resume must fall back past every corrupt checkpoint to the last valid
    // one and still finish bit-identical to the uninterrupted run.
    DpsOptions r = o;
    r.resume = true;
    MadeModel resumed(&env->schema, SmallModelOptions());
    auto stats = TrainDps(&resumed, env->train, r);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectBitIdentical(resumed, golden);
  }
}

TEST_F(CheckpointTest, AllCheckpointsCorruptIsAnErrorNotASilentRestart) {
  Env* env = SharedEnv();
  const std::string dir = TempDir("sam_all_corrupt");
  DpsOptions o = SmallTrainOptions();
  o.checkpoint_dir = dir;
  {
    MadeModel model(&env->schema, SmallModelOptions());
    ASSERT_TRUE(TrainDps(&model, env->train, o).ok());
  }
  const auto files = ListCheckpointFiles(dir);
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) {
    std::ofstream out(f, std::ios::binary | std::ios::trunc);
    out << "all training state lost to corruption";
  }
  o.resume = true;
  MadeModel model(&env->schema, SmallModelOptions());
  auto stats = TrainDps(&model, env->train, o);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
}

TEST_F(CheckpointTest, RetentionKeepsOnlyNewestCheckpoints) {
  Env* env = SharedEnv();
  const std::string dir = TempDir("sam_ckpt_keep");
  DpsOptions o = SmallTrainOptions();
  o.epochs = 4;
  o.checkpoint_dir = dir;
  o.checkpoint_keep = 2;
  MadeModel model(&env->schema, SmallModelOptions());
  ASSERT_TRUE(TrainDps(&model, env->train, o).ok());
  const auto files = ListCheckpointFiles(dir);
  EXPECT_LE(files.size(), 2u);
  EXPECT_FALSE(files.empty());
  // The newest (final) checkpoint is the epoch-4 boundary snapshot.
  EXPECT_EQ(std::filesystem::path(files.back()).filename().string(),
            CheckpointFileName(4, 0));
}

TEST_F(CheckpointTest, LoadLatestOnMissingDirIsNotFound) {
  auto r = LoadLatestValidCheckpoint("/nonexistent/sam/ckpt/dir", nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---- MadeModel::Load regression: corrupt files leave the model untouched --

TEST_F(CheckpointTest, ModelLoadOnTruncatedFileLeavesParamsUntouched) {
  Env* env = SharedEnv();
  const std::string dir = TempDir("sam_model_trunc");
  const std::string path = dir + "/model.bin";
  {
    MadeModel model(&env->schema, SmallModelOptions(/*seed=*/4));
    ASSERT_TRUE(model.Save(path).ok());
  }
  // Truncate the saved file to two thirds.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }
  // A *different* initialization, so "untouched" is distinguishable from
  // "reloaded": before the fix, Load filled tensors until the data ran out
  // and left the model half old, half new.
  MadeModel model(&env->schema, SmallModelOptions(/*seed=*/9));
  const std::vector<Matrix> before = Snapshot(model);
  const Status st = model.Load(path);
  ASSERT_FALSE(st.ok());
  ExpectBitIdentical(model, before);
}

TEST_F(CheckpointTest, ModelLoadOnBitFlippedFileLeavesParamsUntouched) {
  Env* env = SharedEnv();
  const std::string dir = TempDir("sam_model_flip");
  const std::string path = dir + "/model.bin";
  ArtifactFaultInjection f;
  f.bit_flip_at_byte = 5000;  // Lands in some weight matrix.
  SetArtifactFaultInjectionForTest(f);
  {
    MadeModel model(&env->schema, SmallModelOptions(/*seed=*/4));
    ASSERT_TRUE(model.Save(path).ok());
  }
  ClearArtifactFaultInjectionForTest();

  MadeModel model(&env->schema, SmallModelOptions(/*seed=*/9));
  const std::vector<Matrix> before = Snapshot(model);
  const Status st = model.Load(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  ExpectBitIdentical(model, before);
}

TEST_F(CheckpointTest, ModelSaveLoadRoundTripsBitExactly) {
  Env* env = SharedEnv();
  const std::string path = TempDir("sam_model_rt") + "/model.bin";
  MadeModel model(&env->schema, SmallModelOptions(/*seed=*/4));
  ASSERT_TRUE(model.Save(path).ok());
  MadeModel other(&env->schema, SmallModelOptions(/*seed=*/9));
  ASSERT_TRUE(other.Load(path).ok());
  ExpectBitIdentical(other, Snapshot(model));
}

}  // namespace
}  // namespace sam
