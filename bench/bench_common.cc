#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "common/string_util.h"
#include "datasets/datasets.h"
#include "sam/view_baseline.h"
#include "workload/generator.h"

namespace sam::bench {

BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale=paper") {
      config.paper_scale = true;
    } else if (arg == "--scale=small") {
      config.paper_scale = false;
    } else if (StartsWith(arg, "--seed=")) {
      config.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--epochs=")) {
      config.epochs_override = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (StartsWith(arg, "--paths=")) {
      config.paths_override = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (StartsWith(arg, "--lr=")) {
      config.lr_override = std::strtod(arg.c_str() + 5, nullptr);
    } else if (StartsWith(arg, "--repeats=")) {
      config.repeats = static_cast<int>(std::strtol(arg.c_str() + 10, nullptr, 10));
    } else if (StartsWith(arg, "--threads=")) {
      config.threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (StartsWith(arg, "--metrics-out=")) {
      config.metrics_out = arg.substr(14);
    } else if (StartsWith(arg, "--trace-out=")) {
      config.trace_out = arg.substr(12);
    } else {
      std::fprintf(stderr, "unknown flag: %s (expected --scale=, --seed=)\n",
                   arg.c_str());
    }
  }
  return config;
}

void InitObservability(const BenchConfig& config) {
  if (!config.trace_out.empty()) {
    obs::EnableTracing(true);
    obs::Tracer::Global().Reset();
  }
  if (!config.metrics_out.empty()) obs::EnableMetrics(true);
}

void FinishObservability(const BenchConfig& config) {
  if (!config.trace_out.empty()) {
    const Status st = obs::Tracer::Global().WriteChromeTrace(config.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    } else {
      std::printf("trace written to %s\n", config.trace_out.c_str());
    }
  }
  if (!config.metrics_out.empty()) {
    const Status st =
        obs::MetricsRegistry::Global().WriteJson(config.metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n", st.ToString().c_str());
    } else {
      std::printf("metrics written to %s\n", config.metrics_out.c_str());
    }
  }
}

BenchPhase::BenchPhase(std::string name)
    : name_(std::move(name)), span_("bench/" + name_) {}

BenchPhase::~BenchPhase() {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GetHistogram("bench.phase." + name_ + "_seconds")
      ->Observe(watch_.ElapsedSeconds());
}

void RunMicro(const BenchConfig& config, const std::string& name,
              const std::function<void()>& op, double items_per_op,
              double bytes_per_op) {
  constexpr double kRoundSeconds = 0.05;
  // Calibrate: double the batch until it is long enough to time reliably
  // (this also serves as the warm-up).
  size_t batch = 1;
  double elapsed = 0;
  for (;;) {
    Stopwatch watch;
    for (size_t i = 0; i < batch; ++i) op();
    elapsed = watch.ElapsedSeconds();
    if (elapsed >= kRoundSeconds / 5) break;
    batch *= 2;
  }
  batch = std::max<size_t>(
      1, static_cast<size_t>(batch * kRoundSeconds / elapsed));
  const int repeats = std::max(1, config.repeats);
  std::vector<double> per_op;
  for (int rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < batch; ++i) op();
    per_op.push_back(watch.ElapsedSeconds() / static_cast<double>(batch));
  }
  std::sort(per_op.begin(), per_op.end());
  const double secs = per_op[per_op.size() / 2];
  if (secs >= 1e-3) {
    std::printf("%-40s %10.3f ms/op", name.c_str(), secs * 1e3);
  } else {
    std::printf("%-40s %10.3f us/op", name.c_str(), secs * 1e6);
  }
  if (items_per_op > 0) std::printf("  %12.4g items/s", items_per_op / secs);
  if (bytes_per_op > 0) std::printf("  %10.1f MB/s", bytes_per_op / secs / 1e6);
  std::printf("  (%zu calls x %d)\n", batch, repeats);
  std::fflush(stdout);
}

void SkipMicro(const std::string& name, const std::string& why) {
  std::printf("%-40s skipped: %s\n", name.c_str(), why.c_str());
}

DatasetSizes SizesFor(const BenchConfig& config) {
  if (config.paper_scale) {
    return DatasetSizes{48000, 200000, 20000, 20000, 20000, 500};
  }
  return DatasetSizes{8000, 16000, 2500, 2500, 2500, 300};
}

SchemaHints CensusHints() {
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  return hints;
}

SchemaHints DmvHints() {
  SchemaHints hints;
  hints.numeric_columns = {"dmv.valid_date"};
  hints.numeric_bounds["dmv.valid_date"] = {0, 2100};
  return hints;
}

SchemaHints ImdbHints() {
  SchemaHints hints;
  hints.numeric_columns = {"title.production_year"};
  hints.numeric_bounds["title.production_year"] = {1900, 2025};
  hints.fanout_cap = 25;
  return hints;
}

SamOptions DefaultSamOptions(const BenchConfig& config) {
  SamOptions options;
  options.model.hidden_sizes =
      config.paper_scale ? std::vector<size_t>{96, 96} : std::vector<size_t>{48, 48};
  options.model.seed = config.seed * 7919 + 13;
  options.training.epochs = config.paper_scale ? 16 : 10;
  options.training.batch_size = 64;
  options.training.learning_rate = 3e-3;
  options.training.sample_paths = 2;
  options.training.seed = config.seed * 104729 + 7;
  options.foj_samples = config.paper_scale ? 400000 : 60000;
  options.generation_seed = config.seed * 15485863 + 3;
  if (config.epochs_override > 0) options.training.epochs = config.epochs_override;
  if (config.paths_override > 0) options.training.sample_paths = config.paths_override;
  if (config.lr_override > 0) options.training.learning_rate = config.lr_override;
  return options;
}

SamOptions ImdbSamOptions(const BenchConfig& config) {
  SamOptions options = DefaultSamOptions(config);
  options.training.epochs = config.paper_scale ? 24 : 16;
  options.training.sample_paths = 4;
  if (config.epochs_override > 0) options.training.epochs = config.epochs_override;
  if (config.paths_override > 0) options.training.sample_paths = config.paths_override;
  return options;
}

Result<std::map<std::string, int64_t>> ViewSizesFor(const Executor& executor,
                                                    const Workload& workload) {
  // Collect the distinct relation sets, then evaluate the unfiltered view
  // sizes as one batch.
  std::map<std::string, int64_t> out;
  std::vector<std::string> keys;
  Workload views;
  for (const auto& q : workload) {
    std::vector<std::string> rels = q.relations;
    std::sort(rels.begin(), rels.end());
    std::string key;
    for (const auto& r : rels) {
      if (!key.empty()) key += ',';
      key += r;
    }
    if (out.count(key) != 0) continue;
    out[key] = 0;
    keys.push_back(key);
    Query unfiltered;
    unfiltered.relations = q.relations;
    views.push_back(std::move(unfiltered));
  }
  SAM_ASSIGN_OR_RETURN(std::vector<int64_t> sizes,
                       executor.ParallelCardinality(views));
  for (size_t i = 0; i < keys.size(); ++i) out[keys[i]] = sizes[i];
  return out;
}

void PrintHeader(const std::string& title, const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "Model");
  for (const auto& c : cols) std::printf("%12s", c.c_str());
  std::printf("\n");
}

void PrintRow(const std::string& model, const MetricSummary& s, bool with_max) {
  std::printf("%-28s%12s%12s%12s%12s", model.c_str(),
              FormatMetric(s.median).c_str(), FormatMetric(s.p75).c_str(),
              FormatMetric(s.p90).c_str(), FormatMetric(s.mean).c_str());
  if (with_max) std::printf("%12s", FormatMetric(s.max).c_str());
  std::printf("\n");
  std::fflush(stdout);
}

void PrintKv(const std::string& key, const std::string& value) {
  std::printf("%-40s %s\n", (key + ":").c_str(), value.c_str());
  std::fflush(stdout);
}

Result<MetricSummary> EvaluateFidelity(const Database& generated,
                                       const Workload& workload) {
  SAM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> exec,
                       Executor::Create(&generated));
  return QErrorOnDatabase(*exec, workload);
}

Result<SingleRelSetup> SetupCensus(const BenchConfig& config, size_t n_queries,
                                   double coverage_ratio) {
  SingleRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeCensusLike(sizes.census_rows, config.seed * 31 + 1));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 37 + 2;
  wopts.coverage_ratio = coverage_ratio;
  SAM_ASSIGN_OR_RETURN(
      setup.train,
      GenerateSingleRelationWorkload(*setup.db, "census", *setup.exec, wopts));
  setup.table = "census";
  setup.hints = CensusHints();
  return setup;
}

Result<SingleRelSetup> SetupDmv(const BenchConfig& config, size_t n_queries) {
  SingleRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeDmvLike(sizes.dmv_rows, config.seed * 41 + 3));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 43 + 4;
  SAM_ASSIGN_OR_RETURN(
      setup.train,
      GenerateSingleRelationWorkload(*setup.db, "dmv", *setup.exec, wopts));
  setup.table = "dmv";
  setup.hints = DmvHints();
  return setup;
}

Result<Database> GenerateSamVariant(const SamModel& sam, bool group_and_merge) {
  if (group_and_merge) return sam.Generate();
  Rng rng(sam.options().generation_seed);
  const SamModel::FojSample foj =
      sam.SampleFoj(sam.options().foj_samples, rng.engine()());
  return GenerateViewBaseline(sam, foj, &rng);
}

Result<MultiRelSetup> SetupImdb(const BenchConfig& config, size_t n_queries) {
  MultiRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeImdbLike(sizes.imdb_titles, config.seed * 47 + 5));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 53 + 6;
  SAM_ASSIGN_OR_RETURN(setup.train,
                       GenerateMultiRelationWorkload(*setup.db, *setup.exec, wopts));
  setup.foj_size = setup.exec->FullOuterJoinSize();
  setup.hints = ImdbHints();
  return setup;
}

Workload SampleQueries(const Workload& w, size_t n, uint64_t seed) {
  if (w.size() <= n) return w;
  Rng rng(seed);
  std::vector<size_t> idx(w.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.Shuffle(&idx);
  Workload out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(w[idx[i]]);
  return out;
}

}  // namespace sam::bench
