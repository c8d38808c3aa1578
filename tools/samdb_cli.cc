// samdb_cli — end-to-end command-line driver for the SAM pipeline.
//
// Subcommands:
//   dataset   Build a synthetic dataset and save it as schema.txt + CSVs.
//   workload  Generate a labelled query workload against a saved database.
//   train     Train a SAM model from a database's *metadata* + a workload.
//   generate  Generate a synthetic database from a trained model.
//   label     Re-label a workload with true cardinalities from a database.
//   evaluate  Compare a generated database against the original on a workload.
//   estimate  Print progressive-sampling cardinality estimates for a workload.
//   serve     Always-on estimation/generation daemon (line-delimited JSON/TCP).
//   stats     Pretty-print --metrics-out / --trace-out files from a prior run.
//
// Example session:
//   samdb_cli dataset  --kind=census --rows=8000 --out=/tmp/orig
//   samdb_cli workload --db=/tmp/orig --queries=2000 --out=/tmp/train.wl
//   samdb_cli train    --db=/tmp/orig --workload=/tmp/train.wl \
//                      --hints=census --model-out=/tmp/model.bin --epochs=8
//   samdb_cli generate --db=/tmp/orig --workload=/tmp/train.wl \
//                      --hints=census --model=/tmp/model.bin --out=/tmp/synth
//   samdb_cli evaluate --original=/tmp/orig --generated=/tmp/synth \
//                      --workload=/tmp/train.wl

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ar/batched_estimator.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/string_util.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "serve/server.h"
#include "storage/schema_io.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace sam::cli {
namespace {

/// Set by SIGINT/SIGTERM: the trainer polls it between steps, writes a final
/// checkpoint, and returns normally so the process can exit 0.
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int /*signum*/) { g_stop_requested.store(true); }

/// Minimal --key=value flag map.
class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "warning: ignoring positional argument '%s'\n",
                     arg.c_str());
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Checked numeric flag access: malformed values (junk, trailing garbage,
  /// overflow) fail with an InvalidArgument naming the flag instead of being
  /// silently truncated to whatever strtoll made of the prefix.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    auto v = ParseInt64(it->second);
    if (!v.ok()) {
      return Status::InvalidArgument("--" + key + ": " + v.status().message());
    }
    return v;
  }

  /// Checked count flag: a value below `min` (a negative one above all)
  /// fails naming the flag instead of wrapping around to a huge size_t.
  Result<size_t> GetSize(const std::string& key, size_t fallback,
                         size_t min = 0) const {
    SAM_ASSIGN_OR_RETURN(int64_t v,
                         GetInt(key, static_cast<int64_t>(fallback)));
    if (v < static_cast<int64_t>(min)) {
      return Status::InvalidArgument("--" + key + " must be >= " +
                                     std::to_string(min));
    }
    return static_cast<size_t>(v);
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    auto v = ParseFloat64(it->second);
    if (!v.ok()) {
      return Status::InvalidArgument("--" + key + ": " + v.status().message());
    }
    return v;
  }

  bool GetBool(const std::string& key) const {
    return Get(key) == "true" || Get(key) == "1";
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

int FailStatus(const Status& st) { return Fail(st.ToString()); }

/// Assigns a Result<> flag parse into `var`, failing the subcommand with the
/// flag-naming InvalidArgument when the value is malformed.
#define SAM_CLI_ASSIGN(var, expr)                                \
  do {                                                           \
    auto sam_cli_result_ = (expr);                               \
    if (!sam_cli_result_.ok()) {                                 \
      return FailStatus(sam_cli_result_.status());               \
    }                                                            \
    (var) = sam_cli_result_.MoveValue();                         \
  } while (false)

/// Built-in SchemaHints presets matching the bundled datasets.
Result<SchemaHints> HintsByName(const std::string& name) {
  SchemaHints hints;
  if (name == "census") {
    hints.numeric_columns = {"census.age", "census.education_num",
                             "census.capital_gain", "census.capital_loss",
                             "census.hours_per_week"};
    hints.numeric_bounds["census.age"] = {17, 90};
    hints.numeric_bounds["census.education_num"] = {1, 16};
    hints.numeric_bounds["census.capital_gain"] = {0, 61000};
    hints.numeric_bounds["census.capital_loss"] = {0, 10000};
    hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  } else if (name == "dmv") {
    hints.numeric_columns = {"dmv.valid_date"};
    hints.numeric_bounds["dmv.valid_date"] = {0, 2100};
  } else if (name == "imdb") {
    hints.numeric_columns = {"title.production_year"};
    hints.numeric_bounds["title.production_year"] = {1900, 2025};
    hints.fanout_cap = 25;
  } else if (name.empty() || name == "none") {
    // No numeric columns: every filtered column is categorical.
  } else {
    return Status::InvalidArgument("unknown --hints preset '" + name +
                                   "' (census|dmv|imdb|none)");
  }
  return hints;
}

/// Parses extra --numeric=table.col:min:max specs (repeatable via commas).
Status ApplyNumericSpecs(const std::string& spec, SchemaHints* hints) {
  if (spec.empty()) return Status::OK();
  for (const auto& item : Split(spec, ',')) {
    const auto parts = Split(item, ':');
    if (parts.size() != 3) {
      return Status::InvalidArgument("bad --numeric item '" + item +
                                     "' (want table.col:min:max)");
    }
    double lo = 0;
    double hi = 0;
    SAM_ASSIGN_OR_RETURN(lo, ParseFloat64(parts[1]));
    SAM_ASSIGN_OR_RETURN(hi, ParseFloat64(parts[2]));
    hints->numeric_columns.push_back(parts[0]);
    hints->numeric_bounds[parts[0]] = {lo, hi};
  }
  return Status::OK();
}

Result<SamOptions> OptionsFromFlags(const Flags& flags) {
  SamOptions options;
  SAM_ASSIGN_OR_RETURN(options.training.epochs,
                       flags.GetSize("epochs", 10, 1));
  SAM_ASSIGN_OR_RETURN(options.training.batch_size,
                       flags.GetSize("batch", 64, 1));
  SAM_ASSIGN_OR_RETURN(options.training.learning_rate,
                       flags.GetDouble("lr", 3e-3));
  // A rate <= 0 would train nothing or run gradient ascent.
  if (!std::isfinite(options.training.learning_rate) ||
      options.training.learning_rate <= 0) {
    return Status::InvalidArgument("--lr must be finite and > 0");
  }
  SAM_ASSIGN_OR_RETURN(options.training.sample_paths,
                       flags.GetSize("paths", 2, 1));
  SAM_ASSIGN_OR_RETURN(options.training.time_budget_seconds,
                       flags.GetDouble("time-budget", 0));
  // Seeds take any 64-bit pattern, negative literals included.
  int64_t v = 0;
  SAM_ASSIGN_OR_RETURN(v, flags.GetInt("seed", 777));
  options.training.seed = static_cast<uint64_t>(v);
  size_t hidden = 0;
  SAM_ASSIGN_OR_RETURN(hidden, flags.GetSize("hidden", 48));
  options.model.hidden_sizes = {hidden, hidden};
  SAM_ASSIGN_OR_RETURN(options.foj_samples,
                       flags.GetSize("foj-samples", 60000, 1));
  SAM_ASSIGN_OR_RETURN(v, flags.GetInt("gen-seed", 999));
  options.generation_seed = static_cast<uint64_t>(v);
  return options;
}

int CmdDataset(const Flags& flags) {
  const std::string kind = flags.Get("kind", "census");
  const std::string out = flags.Get("out");
  if (out.empty()) return Fail("dataset: --out=DIR is required");
  int64_t seed_i = 0;
  size_t rows = 0;
  SAM_CLI_ASSIGN(seed_i, flags.GetInt("seed", 1));
  SAM_CLI_ASSIGN(rows, flags.GetSize("rows", 8000));
  const uint64_t seed = static_cast<uint64_t>(seed_i);
  Database db;
  if (kind == "census") {
    db = MakeCensusLike(rows, seed);
  } else if (kind == "dmv") {
    db = MakeDmvLike(rows, seed);
  } else if (kind == "imdb") {
    db = MakeImdbLike(rows, seed);
  } else if (kind == "figure3") {
    db = MakeFigure3Database();
  } else if (kind == "chain") {
    db = MakeChainDatabase();
  } else {
    return Fail("dataset: unknown --kind (census|dmv|imdb|figure3|chain)");
  }
  const Status st = SaveDatabaseAtomic(db, out);
  if (!st.ok()) return FailStatus(st);
  std::printf("wrote %zu table(s) to %s\n", db.num_tables(), out.c_str());
  return 0;
}

int CmdWorkload(const Flags& flags) {
  const std::string db_dir = flags.Get("db");
  const std::string out = flags.Get("out");
  if (db_dir.empty() || out.empty()) {
    return Fail("workload: --db=DIR and --out=FILE are required");
  }
  auto db = LoadDatabase(db_dir);
  if (!db.ok()) return FailStatus(db.status());
  auto exec = Executor::Create(&db.ValueOrDie());
  if (!exec.ok()) return FailStatus(exec.status());

  Result<Workload> workload = Status::Internal("unset");
  size_t n = 0;
  int64_t seed_i = 0;
  SAM_CLI_ASSIGN(n, flags.GetSize("queries", 1000));
  SAM_CLI_ASSIGN(seed_i, flags.GetInt("seed", 100));
  const uint64_t seed = static_cast<uint64_t>(seed_i);
  if (flags.GetBool("joblight")) {
    JobLightWorkloadOptions opts;
    opts.num_queries = n;
    opts.seed = seed;
    workload = GenerateJobLightWorkload(db.ValueOrDie(), *exec.ValueOrDie(), opts);
  } else if (db.ValueOrDie().num_tables() > 1) {
    MultiRelationWorkloadOptions opts;
    opts.num_queries = n;
    opts.seed = seed;
    SAM_CLI_ASSIGN(opts.max_joins, flags.GetSize("max-joins", 2));
    workload =
        GenerateMultiRelationWorkload(db.ValueOrDie(), *exec.ValueOrDie(), opts);
  } else {
    SingleRelationWorkloadOptions opts;
    opts.num_queries = n;
    opts.seed = seed;
    SAM_CLI_ASSIGN(opts.coverage_ratio, flags.GetDouble("coverage", 1.0));
    SAM_CLI_ASSIGN(opts.max_filters, flags.GetSize("max-filters", 5));
    const std::string table =
        flags.Get("table", db.ValueOrDie().tables()[0].name());
    workload = GenerateSingleRelationWorkload(db.ValueOrDie(), table,
                                              *exec.ValueOrDie(), opts);
  }
  if (!workload.ok()) return FailStatus(workload.status());
  const Status st = SaveWorkload(workload.ValueOrDie(), out);
  if (!st.ok()) return FailStatus(st);
  std::printf("wrote %zu queries to %s\n", workload.ValueOrDie().size(),
              out.c_str());
  return 0;
}

/// Shared setup for train/generate/estimate: load database, workload, hints.
struct PipelineInputs {
  /// Heap-allocated so its address survives moving the struct: `exec` (and
  /// the serve daemon) hold raw `Database*` pointers into it. Holding it by
  /// value left `exec->db_` dangling after `LoadPipelineInputs` returned —
  /// harmless for the batch commands (none used `exec` post-return) but
  /// fatal for `serve`, which evaluates through it for the daemon's
  /// lifetime.
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload workload;
  SchemaHints hints;
  int64_t foj_size = 0;
};

Result<PipelineInputs> LoadPipelineInputs(const Flags& flags) {
  PipelineInputs in;
  const std::string db_dir = flags.Get("db");
  if (db_dir.empty()) return Status::InvalidArgument("--db=DIR is required");
  SAM_ASSIGN_OR_RETURN(Database db, LoadDatabase(db_dir));
  in.db = std::make_unique<Database>(std::move(db));
  SAM_ASSIGN_OR_RETURN(in.exec, Executor::Create(in.db.get()));
  const std::string wl = flags.Get("workload");
  if (wl.empty()) return Status::InvalidArgument("--workload=FILE is required");
  SAM_ASSIGN_OR_RETURN(in.workload, LoadWorkload(wl));
  SAM_ASSIGN_OR_RETURN(in.hints, HintsByName(flags.Get("hints")));
  SAM_RETURN_NOT_OK(ApplyNumericSpecs(flags.Get("numeric"), &in.hints));
  in.foj_size = in.db->num_tables() > 1
                    ? in.exec->FullOuterJoinSize()
                    : static_cast<int64_t>(in.db->tables()[0].num_rows());
  return in;
}

/// Re-labels an existing workload file with true cardinalities computed
/// against a database, using the batched executor API.
int CmdLabel(const Flags& flags) {
  const std::string db_dir = flags.Get("db");
  const std::string wl_path = flags.Get("workload");
  const std::string out = flags.Get("out");
  if (db_dir.empty() || wl_path.empty() || out.empty()) {
    return Fail("label: --db=DIR, --workload=FILE and --out=FILE are required");
  }
  auto db = LoadDatabase(db_dir);
  if (!db.ok()) return FailStatus(db.status());
  auto exec = Executor::Create(&db.ValueOrDie());
  if (!exec.ok()) return FailStatus(exec.status());
  auto workload = LoadWorkload(wl_path);
  if (!workload.ok()) return FailStatus(workload.status());
  size_t threads = 0;
  SAM_CLI_ASSIGN(threads, flags.GetSize("threads", 0));
  auto cards =
      exec.ValueOrDie()->ParallelCardinality(workload.ValueOrDie(), threads);
  if (!cards.ok()) return FailStatus(cards.status());
  for (size_t i = 0; i < workload.ValueOrDie().size(); ++i) {
    workload.ValueOrDie()[i].cardinality = cards.ValueOrDie()[i];
  }
  const Status st = SaveWorkload(workload.ValueOrDie(), out);
  if (!st.ok()) return FailStatus(st);
  std::printf("labelled %zu queries -> %s\n", workload.ValueOrDie().size(),
              out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  // Validate flags before the input load, so a bad value fails fast.
  SamOptions options;
  SAM_CLI_ASSIGN(options, OptionsFromFlags(flags));
  SAM_CLI_ASSIGN(options.training.threads, flags.GetSize("threads", 0));

  auto inputs = LoadPipelineInputs(flags);
  if (!inputs.ok()) return FailStatus(inputs.status());
  PipelineInputs& in = inputs.ValueOrDie();
  const std::string model_out = flags.Get("model-out");
  if (model_out.empty()) return Fail("train: --model-out=FILE is required");

  options.training.checkpoint_dir = flags.Get("checkpoint-dir");
  SAM_CLI_ASSIGN(options.training.checkpoint_every_epochs,
                 flags.GetSize("checkpoint-every", 1));
  SAM_CLI_ASSIGN(options.training.checkpoint_keep,
                 flags.GetSize("checkpoint-keep", 2));
  options.training.resume = flags.GetBool("resume");
  options.training.stop_flag = &g_stop_requested;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  // --stop-after-epochs=N requests a cooperative stop once N epochs have
  // completed *in total* (including epochs replayed from a checkpoint). Used
  // by tests/CI to exercise the interrupt/resume path deterministically.
  size_t stop_after = 0;
  SAM_CLI_ASSIGN(stop_after, flags.GetSize("stop-after-epochs", 0));
  auto on_epoch = [stop_after](const DpsEpochStats& s) {
    std::printf("epoch %zu: loss=%.4f (%.1fs)\n", s.epoch, s.mean_loss,
                s.seconds_elapsed);
    std::fflush(stdout);
    if (stop_after > 0 && s.epoch + 1 >= stop_after) {
      g_stop_requested.store(true);
    }
  };

  auto sam = SamModel::Train(*in.db, in.workload, in.hints, in.foj_size,
                             options, on_epoch);
  if (!sam.ok()) return FailStatus(sam.status());
  if (g_stop_requested.load() && !options.training.checkpoint_dir.empty()) {
    std::printf("training interrupted; checkpoint written to %s "
                "(rerun with --resume to continue)\n",
                options.training.checkpoint_dir.c_str());
  }
  const Status st = sam.ValueOrDie()->model()->Save(model_out);
  if (!st.ok()) return FailStatus(st);
  std::printf("saved model (%zu parameters) to %s\n",
              sam.ValueOrDie()->model()->num_parameters(), model_out.c_str());
  return 0;
}

int CmdGenerate(const Flags& flags) {
  // Validate flags before the (expensive) input load, so a typo like
  // --memory-cap=garbage fails immediately, naming the flag.
  SamOptions options;
  SAM_CLI_ASSIGN(options, OptionsFromFlags(flags));
  SAM_CLI_ASSIGN(options.generation_batch,
                 flags.GetSize("gen-batch", options.generation_batch, 1));
  if (flags.Has("memory-cap")) {
    int64_t cap_mib = 0;
    SAM_CLI_ASSIGN(cap_mib, flags.GetInt("memory-cap", 0));
    if (cap_mib < 0) return Fail("generate: --memory-cap=MiB must be >= 0");
    // The cap is held in bytes: a larger MiB count would overflow int64.
    if (cap_mib > (std::numeric_limits<int64_t>::max() >> 20)) {
      return Fail("generate: --memory-cap=MiB must be < 2^43");
    }
    options.memory_cap_bytes = cap_mib << 20;
  }
  SAM_CLI_ASSIGN(options.generation_checkpoint_every,
                 flags.GetInt("checkpoint-every",
                              options.generation_checkpoint_every));
  size_t threads = 0;
  SAM_CLI_ASSIGN(threads, flags.GetSize("threads", 0));

  auto inputs = LoadPipelineInputs(flags);
  if (!inputs.ok()) return FailStatus(inputs.status());
  PipelineInputs& in = inputs.ValueOrDie();
  const std::string model_path = flags.Get("model");
  const std::string out = flags.Get("out");
  if (model_path.empty() || out.empty()) {
    return Fail("generate: --model=FILE and --out=DIR are required");
  }

  auto sam = SamModel::Create(*in.db, in.workload, in.hints, in.foj_size,
                              options);
  if (!sam.ok()) return FailStatus(sam.status());
  Status st = sam.ValueOrDie()->model()->Load(model_path);
  if (!st.ok()) return FailStatus(st);
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  // The crash-safe pipeline publishes `out` all-or-nothing — it never holds
  // a partially generated database.
  GenerationPipelineOptions popts;
  popts.out_dir = out;
  popts.work_dir = flags.Get("checkpoint-dir", out + ".work");
  popts.resume = flags.GetBool("resume");
  popts.stop_flag = &g_stop_requested;
  SAM_CLI_ASSIGN(popts.stop_after_steps, flags.GetSize("stop-after-steps", 0));
  SAM_CLI_ASSIGN(popts.checkpoint_keep, flags.GetSize("checkpoint-keep", 3));
  popts.threads = threads;
  popts.keep_work_dir = flags.GetBool("keep-work");
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  GenerationPipeline pipeline(sam.ValueOrDie().get(), popts);
  auto run = pipeline.Run();
  if (!run.ok()) return FailStatus(run.status());
  const GenerationRunSummary& s = run.ValueOrDie();
  if (!s.completed) {
    std::printf(
        "generation stopped at step %llu/%llu; checkpoint saved in %s "
        "(rerun with --resume to continue)\n",
        static_cast<unsigned long long>(s.next_step),
        static_cast<unsigned long long>(s.steps_total), popts.work_dir.c_str());
    return 0;
  }
  std::printf(
      "wrote synthetic database to %s (%llu rows, %llu/%llu steps%s, "
      "%.1f KiB spilled, peak reserved %.1f KiB)\n",
      out.c_str(), static_cast<unsigned long long>(s.rows_written),
      static_cast<unsigned long long>(s.steps_executed),
      static_cast<unsigned long long>(s.steps_total),
      s.resumed_from.empty() ? "" : " after resume",
      static_cast<double>(s.spill_bytes) / 1024.0,
      static_cast<double>(s.peak_reserved) / 1024.0);
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const std::string orig_dir = flags.Get("original");
  const std::string gen_dir = flags.Get("generated");
  const std::string wl = flags.Get("workload");
  if (orig_dir.empty() || gen_dir.empty() || wl.empty()) {
    return Fail(
        "evaluate: --original=DIR, --generated=DIR and --workload=FILE are "
        "required");
  }
  auto orig = LoadDatabase(orig_dir);
  if (!orig.ok()) return FailStatus(orig.status());
  auto gen = LoadDatabase(gen_dir);
  if (!gen.ok()) return FailStatus(gen.status());
  auto workload = LoadWorkload(wl);
  if (!workload.ok()) return FailStatus(workload.status());
  auto orig_exec = Executor::Create(&orig.ValueOrDie());
  auto gen_exec = Executor::Create(&gen.ValueOrDie());
  if (!orig_exec.ok()) return FailStatus(orig_exec.status());
  if (!gen_exec.ok()) return FailStatus(gen_exec.status());

  auto qe = QErrorOnDatabase(*gen_exec.ValueOrDie(), workload.ValueOrDie());
  if (!qe.ok()) return FailStatus(qe.status());
  const MetricSummary& s = qe.ValueOrDie();
  std::printf("Q-Error:   median=%s 75th=%s 90th=%s mean=%s max=%s (n=%zu)\n",
              FormatMetric(s.median).c_str(), FormatMetric(s.p75).c_str(),
              FormatMetric(s.p90).c_str(), FormatMetric(s.mean).c_str(),
              FormatMetric(s.max).c_str(), s.count);

  // Cross entropy per shared relation on its content columns.
  for (const auto& t : orig.ValueOrDie().tables()) {
    const Table* g = gen.ValueOrDie().FindTable(t.name());
    if (g == nullptr || t.num_rows() == 0 || g->num_rows() == 0) continue;
    auto h = CrossEntropyBits(t, *g, t.ContentColumnNames());
    if (h.ok()) {
      std::printf("CrossEnt:  %-18s %.2f bits\n", t.name().c_str(),
                  h.ValueOrDie());
    }
  }

  if (flags.GetBool("latency")) {
    auto dev = PerformanceDeviationMs(*orig_exec.ValueOrDie(),
                                      *gen_exec.ValueOrDie(),
                                      workload.ValueOrDie(), 5);
    if (!dev.ok()) return FailStatus(dev.status());
    std::printf("LatDev ms: median=%.3f 90th=%.3f mean=%.3f\n",
                dev.ValueOrDie().median, dev.ValueOrDie().p90,
                dev.ValueOrDie().mean);
  }
  return 0;
}

int CmdEstimate(const Flags& flags) {
  auto inputs = LoadPipelineInputs(flags);
  if (!inputs.ok()) return FailStatus(inputs.status());
  PipelineInputs& in = inputs.ValueOrDie();
  const std::string model_path = flags.Get("model");
  if (model_path.empty()) return Fail("estimate: --model=FILE is required");
  SamOptions options;
  SAM_CLI_ASSIGN(options, OptionsFromFlags(flags));
  auto sam = SamModel::Create(*in.db, in.workload, in.hints, in.foj_size,
                              options);
  if (!sam.ok()) return FailStatus(sam.status());
  Status st = sam.ValueOrDie()->model()->Load(model_path);
  if (!st.ok()) return FailStatus(st);
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  size_t paths = 0;
  size_t limit = 0;
  SAM_CLI_ASSIGN(paths, flags.GetSize("paths", 400, 1));
  SAM_CLI_ASSIGN(limit, flags.GetSize("limit", in.workload.size()));
  // The whole workload sweeps through the batched estimator as one call
  // sharded over the shared worker set (each estimate equals its own K = 1
  // call; see BatchedProgressiveEstimator's determinism contract).
  limit = std::min(limit, in.workload.size());
  const Workload subset(in.workload.begin(),
                        in.workload.begin() + static_cast<ptrdiff_t>(limit));
  BatchedProgressiveEstimator estimator(sam.ValueOrDie()->model());
  auto ests = estimator.EstimateBatch(subset, paths, &SharedThreadPool());
  if (!ests.ok()) return FailStatus(ests.status());
  std::vector<double> qerrors;
  for (size_t i = 0; i < limit; ++i) {
    const Query& q = in.workload[i];
    const double est = ests.ValueOrDie()[i];
    const double qe = QError(est, static_cast<double>(q.cardinality));
    qerrors.push_back(qe);
    if (flags.GetBool("verbose")) {
      std::printf("est=%12.0f true=%12lld qerr=%7.2f  %s\n", est,
                  static_cast<long long>(q.cardinality), qe,
                  q.ToString().c_str());
    }
  }
  const MetricSummary s = Summarize(std::move(qerrors));
  std::printf("estimator Q-Error: median=%s 90th=%s mean=%s (n=%zu)\n",
              FormatMetric(s.median).c_str(), FormatMetric(s.p90).c_str(),
              FormatMetric(s.mean).c_str(), s.count);
  return 0;
}

/// Long-lived daemon: loads the database/model once, then answers concurrent
/// estimation and generation requests over line-delimited JSON/TCP until
/// SIGINT/SIGTERM triggers a graceful drain.
int CmdServe(const Flags& flags) {
  auto inputs = LoadPipelineInputs(flags);
  if (!inputs.ok()) return FailStatus(inputs.status());
  PipelineInputs& in = inputs.ValueOrDie();
  const std::string model_path = flags.Get("model");
  if (model_path.empty()) return Fail("serve: --model=FILE is required");
  SamOptions options;
  SAM_CLI_ASSIGN(options, OptionsFromFlags(flags));

  // Shared by startup and the hot-swap watcher: build an untrained SAM for
  // the schema, then load weights from the artifact. The watcher stages the
  // whole load off to the side and the server applies it atomically, so a
  // re-trained model dropped onto --model goes live with zero downtime.
  auto load_model =
      [&in, &options,
       model_path]() -> Result<std::shared_ptr<const SamModel>> {
    SAM_ASSIGN_OR_RETURN(
        std::unique_ptr<SamModel> sam,
        SamModel::Create(*in.db, in.workload, in.hints, in.foj_size, options));
    SAM_RETURN_NOT_OK(sam->model()->Load(model_path));
    sam->model()->SyncSamplerWeights();
    return std::shared_ptr<const SamModel>(std::move(sam));
  };
  auto model = load_model();
  if (!model.ok()) return FailStatus(model.status());

  serve::ServeOptions sopts;
  sopts.host = flags.Get("host", "127.0.0.1");
  int64_t v = 0;
  SAM_CLI_ASSIGN(v, flags.GetInt("port", 0));
  if (v < 0 || v > 65535) return Fail("serve: --port must be in [0, 65535]");
  sopts.port = static_cast<int>(v);
  SAM_CLI_ASSIGN(sopts.queue_capacity, flags.GetSize("queue-cap", 256, 1));
  SAM_CLI_ASSIGN(sopts.batch_max, flags.GetSize("batch-max", 64, 1));
  SAM_CLI_ASSIGN(sopts.plan_cache_capacity, flags.GetSize("plan-cache", 256));
  SAM_CLI_ASSIGN(v, flags.GetInt("timeout-ms", 30000));
  if (v < 0) return Fail("serve: --timeout-ms must be >= 0");
  sopts.request_timeout_ms = v;
  SAM_CLI_ASSIGN(v, flags.GetInt("paths", 400));
  if (v < 1 || v > serve::kMaxPathsPerQuery) {
    return Fail("serve: --paths must be in [1, " +
                std::to_string(serve::kMaxPathsPerQuery) + "]");
  }
  sopts.estimate_paths_default = static_cast<size_t>(v);
  SAM_CLI_ASSIGN(v, flags.GetInt("watch-ms", 0));
  if (v < 0) return Fail("serve: --watch-ms must be >= 0");
  if (v > 0) {
    sopts.model_path = model_path;
    sopts.watch_interval_ms = v;
    sopts.reload_model = load_model;
  }

  // The daemon always collects metrics: latency histograms and queue gauges
  // are part of its contract (--metrics-out additionally dumps them on exit).
  obs::EnableMetrics(true);

  serve::SamServer server(in.db.get(), in.exec.get(), model.MoveValue(), sopts);
  const Status st = server.Start();
  if (!st.ok()) return FailStatus(st);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("serving %s on %s:%d (batch-max=%zu queue-cap=%zu "
              "plan-cache=%zu watch-ms=%lld)\n",
              flags.Get("db").c_str(), sopts.host.c_str(), server.port(),
              sopts.batch_max, sopts.queue_capacity, sopts.plan_cache_capacity,
              static_cast<long long>(sopts.watch_interval_ms));
  std::fflush(stdout);

  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("drain: answering in-flight requests\n");
  std::fflush(stdout);
  server.Stop();
  std::printf("final stats: %s\n", server.StatsJson().c_str());
  return 0;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

int PrintMetricsFile(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return FailStatus(content.status());
  auto parsed = obs::ParseJson(content.ValueOrDie());
  if (!parsed.ok()) return FailStatus(parsed.status());
  const obs::JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) return Fail("'" + path + "' is not a metrics object");
  std::printf("== metrics (%s)\n", path.c_str());
  if (const obs::JsonValue* counters = root.Find("counters")) {
    for (const auto& [name, v] : counters->object_members) {
      std::printf("%-52s %20.0f\n", name.c_str(), v.number_value);
    }
  }
  if (const obs::JsonValue* gauges = root.Find("gauges")) {
    for (const auto& [name, v] : gauges->object_members) {
      const obs::JsonValue* value = v.Find("value");
      const obs::JsonValue* max = v.Find("max");
      std::printf("%-52s %20.6g  (max %.6g)\n", name.c_str(),
                  value != nullptr ? value->number_value : 0.0,
                  max != nullptr ? max->number_value : 0.0);
    }
  }
  if (const obs::JsonValue* hists = root.Find("histograms")) {
    for (const auto& [name, v] : hists->object_members) {
      auto field = [&v](const char* key) {
        const obs::JsonValue* f = v.Find(key);
        return f != nullptr ? f->number_value : 0.0;
      };
      std::printf(
          "%-52s n=%-9.0f mean=%-11.4g p50=%-11.4g p90=%-11.4g max=%.4g\n",
          name.c_str(), field("count"), field("mean"), field("p50"),
          field("p90"), field("max"));
    }
  }
  return 0;
}

int PrintTraceFile(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return FailStatus(content.status());
  auto parsed = obs::ParseJson(content.ValueOrDie());
  if (!parsed.ok()) return FailStatus(parsed.status());
  const obs::JsonValue* events = parsed.ValueOrDie().Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("'" + path + "' has no traceEvents array");
  }
  struct SpanAgg {
    size_t count = 0;
    double total_us = 0;
    double max_us = 0;
  };
  std::map<std::string, SpanAgg> by_name;
  double wall_us = 0;
  for (const obs::JsonValue& ev : events->array_items) {
    const obs::JsonValue* name = ev.Find("name");
    const obs::JsonValue* dur = ev.Find("dur");
    const obs::JsonValue* ts = ev.Find("ts");
    if (name == nullptr || dur == nullptr) continue;
    SpanAgg& agg = by_name[name->string_value];
    ++agg.count;
    agg.total_us += dur->number_value;
    agg.max_us = std::max(agg.max_us, dur->number_value);
    if (ts != nullptr) {
      wall_us = std::max(wall_us, ts->number_value + dur->number_value);
    }
  }
  std::vector<std::pair<std::string, SpanAgg>> rows(by_name.begin(),
                                                    by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("== trace (%s): %zu events, %.1f ms wall\n", path.c_str(),
              events->array_items.size(), wall_us * 1e-3);
  std::printf("%-40s %8s %12s %12s %12s\n", "span", "count", "total ms",
              "mean ms", "max ms");
  for (const auto& [name, agg] : rows) {
    std::printf("%-40s %8zu %12.3f %12.3f %12.3f\n", name.c_str(), agg.count,
                agg.total_us * 1e-3,
                agg.total_us * 1e-3 / static_cast<double>(agg.count),
                agg.max_us * 1e-3);
  }
  return 0;
}

/// Pretty-prints --metrics-out/--trace-out files from a previous run.
int CmdStats(const Flags& flags) {
  const std::string metrics = flags.Get("metrics");
  const std::string trace = flags.Get("trace");
  if (metrics.empty() && trace.empty()) {
    return Fail("stats: --metrics=FILE and/or --trace=FILE is required");
  }
  if (!metrics.empty()) {
    const int rc = PrintMetricsFile(metrics);
    if (rc != 0) return rc;
  }
  if (!trace.empty()) {
    const int rc = PrintTraceFile(trace);
    if (rc != 0) return rc;
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: samdb_cli <command> [--flags]\n"
      "commands:\n"
      "  dataset   --kind=census|dmv|imdb|figure3|chain --rows=N --seed=S --out=DIR\n"
      "  workload  --db=DIR --queries=N [--table=T|--joblight] [--coverage=R] --out=FILE\n"
      "  label     --db=DIR --workload=FILE [--threads=N] --out=FILE\n"
      "  train     --db=DIR --workload=FILE --hints=census|dmv|imdb|none\n"
      "            [--numeric=t.c:min:max,...] [--epochs --batch --lr --paths\n"
      "             --hidden --time-budget] --model-out=FILE\n"
      "            [--checkpoint-dir=DIR [--checkpoint-every=N]\n"
      "             [--checkpoint-keep=N] [--resume] [--stop-after-epochs=N]]\n"
      "            [--threads=N]\n"
      "            --threads runs the DPS shard tapes of a step in parallel\n"
      "            on the process's one worker set (0 = half of it, 1 =\n"
      "            inline); the trained model is bit-identical for every\n"
      "            thread count.\n"
      "            Checkpoints are atomic + checksummed; SIGINT/SIGTERM finish\n"
      "            the current step, write a final checkpoint and exit 0.\n"
      "            --resume continues from the latest valid checkpoint and is\n"
      "            bit-identical to an uninterrupted run (see\n"
      "            docs/CHECKPOINTING.md).\n"
      "  generate  --db=DIR --workload=FILE --hints=... --model=FILE --out=DIR\n"
      "            [--foj-samples=K] [--gen-batch=N]\n"
      "            [--checkpoint-dir=DIR] [--checkpoint-every=N]\n"
      "            [--checkpoint-keep=N] [--resume] [--memory-cap=MiB]\n"
      "            [--stop-after-steps=N] [--keep-work] [--threads=N]\n"
      "            Runs the crash-safe generation pipeline under --memory-cap\n"
      "            (default 256): spill files + checkpoints live in\n"
      "            --checkpoint-dir (default OUT.work), SIGINT/SIGTERM\n"
      "            checkpoint and exit 0, and --resume continues to a\n"
      "            byte-identical database (see docs/GENERATION.md).\n"
      "            --threads parallelises sampling and Group-and-Merge (0 =\n"
      "            hardware, 1 = serial); output bytes are identical for\n"
      "            every thread count.\n"
      "  evaluate  --original=DIR --generated=DIR --workload=FILE [--latency]\n"
      "  estimate  --db=DIR --workload=FILE --hints=... --model=FILE [--verbose]\n"
      "  serve     --db=DIR --workload=FILE --hints=... --model=FILE\n"
      "            [--host=ADDR] [--port=N (0 = ephemeral)] [--batch-max=N]\n"
      "            [--queue-cap=N] [--plan-cache=N]\n"
      "            [--timeout-ms=N] [--paths=N] [--watch-ms=N]\n"
      "            Line-delimited JSON over TCP; requests: ping, estimate,\n"
      "            estimate_batch, generate, generate_status, stats.\n"
      "            Batches run on the process's one worker set.\n"
      "            --watch-ms polls --model for changes and hot-swaps the\n"
      "            reloaded model with zero downtime. SIGINT/SIGTERM drain\n"
      "            gracefully (in-flight requests are answered) and exit 0\n"
      "            (see docs/SERVE.md).\n"
      "  stats     --metrics=FILE and/or --trace=FILE\n"
      "            Pretty-prints files written by --metrics-out/--trace-out.\n"
      "Unknown flags are errors.\n"
      "global flags (any command):\n"
      "  --trace-out=FILE    record pipeline spans, write Chrome-trace JSON\n"
      "                      (load in chrome://tracing or Perfetto)\n"
      "  --metrics-out=FILE  record pipeline counters/gauges/histograms as JSON\n"
      "  --log-level=LEVEL   debug|info|warn|error (default info)\n");
  return 2;
}

/// A subcommand and the flags it reads besides kGlobalFlags.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  bool model_flags;  ///< Also reads kModelFlags.
  std::vector<std::string> flags;
};

/// Read by every command (in Main).
const char* const kGlobalFlags[] = {"log-level", "trace-out", "metrics-out"};
/// Read by LoadPipelineInputs and OptionsFromFlags.
const char* const kModelFlags[] = {"db",     "workload",    "hints",
                                   "numeric", "epochs",      "batch",
                                   "lr",      "paths",       "time-budget",
                                   "seed",    "hidden",      "foj-samples",
                                   "gen-seed"};

const Command* FindCommand(const std::string& name) {
  static const std::vector<Command> commands = {
      {"dataset", CmdDataset, false, {"kind", "rows", "seed", "out"}},
      {"workload", CmdWorkload, false,
       {"db", "out", "queries", "seed", "joblight", "max-joins", "coverage",
        "max-filters", "table"}},
      {"label", CmdLabel, false, {"db", "workload", "out", "threads"}},
      {"train", CmdTrain, true,
       {"model-out", "checkpoint-dir", "checkpoint-every", "checkpoint-keep",
        "resume", "stop-after-epochs", "threads"}},
      {"generate", CmdGenerate, true,
       {"model", "out", "gen-batch", "memory-cap", "checkpoint-dir",
        "checkpoint-every", "checkpoint-keep", "resume", "stop-after-steps",
        "keep-work", "threads"}},
      {"evaluate", CmdEvaluate, false,
       {"original", "generated", "workload", "latency"}},
      {"estimate", CmdEstimate, true, {"model", "limit", "verbose"}},
      {"serve", CmdServe, true,
       {"model", "host", "port", "queue-cap", "batch-max", "plan-cache",
        "timeout-ms", "watch-ms"}},
      {"stats", CmdStats, false, {"metrics", "trace"}},
  };
  for (const Command& c : commands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

bool Declares(const Command& command, const std::string& flag) {
  auto in = [&flag](const auto& names) {
    return std::find(std::begin(names), std::end(names), flag) !=
           std::end(names);
  };
  return in(kGlobalFlags) || (command.model_flags && in(kModelFlags)) ||
         in(command.flags);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Command* command = FindCommand(cmd);
  if (command == nullptr) return Usage();
  const Flags flags(argc, argv, 2);
  // A typo or a retired flag must fail before any input is loaded, not be
  // silently ignored.
  for (const auto& [key, value] : flags.values()) {
    if (!Declares(*command, key)) {
      return Fail(cmd + ": unknown flag --" + key +
                  " (run samdb_cli without arguments for usage)");
    }
  }

  // Global observability flags, honoured by every subcommand.
  const std::string log_level = flags.Get("log-level");
  if (!log_level.empty()) {
    if (log_level == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (log_level == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (log_level == "warn") {
      SetLogLevel(LogLevel::kWarn);
    } else if (log_level == "error") {
      SetLogLevel(LogLevel::kError);
    } else {
      return Fail("unknown --log-level '" + log_level +
                  "' (debug|info|warn|error)");
    }
  }
  const std::string trace_out = flags.Get("trace-out");
  const std::string metrics_out = flags.Get("metrics-out");
  if (!trace_out.empty()) {
    obs::EnableTracing(true);
    obs::Tracer::Global().Reset();
  }
  if (!metrics_out.empty()) obs::EnableMetrics(true);

  int rc = command->run(flags);

  // Flush observability output even when the command failed: a partial trace
  // is exactly what is needed to debug the failure.
  if (!trace_out.empty()) {
    const Status st = obs::Tracer::Global().WriteChromeTrace(trace_out);
    if (!st.ok() && rc == 0) rc = FailStatus(st);
  }
  if (!metrics_out.empty()) {
    const Status st = obs::MetricsRegistry::Global().WriteJson(metrics_out);
    if (!st.ok() && rc == 0) rc = FailStatus(st);
  }
  return rc;
}

}  // namespace
}  // namespace sam::cli

int main(int argc, char** argv) { return sam::cli::Main(argc, argv); }
