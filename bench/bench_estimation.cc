// bench_estimation — batched vs per-query progressive-sampling estimation.
//
// Builds a census-like database and workload in process, then measures the
// model-estimation path two ways over the same queries:
//   baseline   one K = 1 BatchedProgressiveEstimator::EstimateBatch call per
//              query, serially and with no pool — one CondProbs per column
//              over `paths` rows, the shape of a per-query sweep loop;
//   batched    the workload swept through the same estimator in groups of
//              K coalesced queries, path-blocks sharded over the thread
//              pool.
// Every batched leg is checked to agree bit-for-bit with the baseline on
// every query (the batched estimator's determinism contract), so the speedup
// can never come from answering a different question. Each leg runs 5 times,
// baseline and batched legs interleaved, and its median time is reported.
//
// Results go to stdout and (machine-readable, for cross-PR perf tracking) to
// --json-out, default BENCH_estimation.json: queries/sec per coalesced batch
// size, kernel backend, thread count.
//
// Flags:
//   --smoke         tiny sizes (CI)
//   --rows=N        census rows                     (default 4000)
//   --queries=N     workload size swept per config  (default 128; smoke 48)
//   --paths=N       trajectories per query          (default 200; smoke 64)
//   --threads=N     pool workers for the batched path (0 = hardware)
//   --min-speedup=X fail (exit 1) when the best batched/baseline ratio at
//                   >= 8 coalesced queries lands below X (default 0 =
//                   report only); the CI gate uses a conservative threshold
//   --json-out=F    output file ("" disables; default BENCH_estimation.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ar/batched_estimator.h"
#include "ar/made.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Args {
  bool smoke = false;
  size_t rows = 4000;
  size_t queries = 128;
  size_t paths = 200;
  size_t threads = 0;  // 0 = hardware concurrency.
  double min_speedup = 0;
  std::string json_out = "BENCH_estimation.json";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--smoke") {
      args.smoke = true;
      args.queries = 48;
      args.paths = 64;
    } else if (const char* v = value("--rows=")) {
      args.rows = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--queries=")) {
      args.queries = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--paths=")) {
      args.paths = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--threads=")) {
      args.threads = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--min-speedup=")) {
      args.min_speedup = std::atof(v);
    } else if (const char* v = value("--json-out=")) {
      args.json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Timed repetitions of every leg; each reported rate is their median.
constexpr int kRepeats = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  Database db = MakeCensusLike(args.rows, /*seed=*/7);
  auto exec = Executor::Create(&db);
  SAM_CHECK(exec.ok()) << exec.status().ToString();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = args.queries;
  wopts.seed = 11;
  auto workload =
      GenerateSingleRelationWorkload(db, "census", *exec.ValueOrDie(), wopts);
  SAM_CHECK(workload.ok()) << workload.status().ToString();
  const Workload& queries = workload.ValueOrDie();

  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  auto schema = ModelSchema::Build(db, queries, hints,
                                   static_cast<int64_t>(args.rows));
  SAM_CHECK(schema.ok()) << schema.status().ToString();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {64, 64};
  MadeModel model(&schema.ValueOrDie(), mopts);
  model.SyncSamplerWeights();

  const size_t threads =
      args.threads > 0 ? args.threads
                       : std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);
  const char* backend =
      kernels::ActiveBackend() == kernels::Backend::kAvx2 ? "avx2" : "scalar";

  std::printf("bench_estimation: %zu queries x %zu paths, census rows=%zu, "
              "backend=%s, threads=%zu\n",
              queries.size(), args.paths, args.rows, backend, threads);

  // Baseline: one K = 1 call per query, serial and with no pool (a
  // per-query sweep loop).
  BatchedProgressiveEstimator batched(&model);
  auto baseline_leg = [&](std::vector<double>* out) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto est = batched.EstimateBatch({queries[i]}, args.paths);
      SAM_CHECK(est.ok()) << est.status().ToString();
      (*out)[i] = est.ValueOrDie()[0];
    }
  };
  // Batched: the workload in groups of `k` coalesced queries, on the pool.
  auto batched_leg = [&](size_t k, std::vector<double>* out) {
    for (size_t base = 0; base < queries.size(); base += k) {
      const size_t n = std::min(k, queries.size() - base);
      const std::vector<Query> group(queries.begin() + base,
                                     queries.begin() + base + n);
      auto ests = batched.EstimateBatch(group, args.paths, &pool);
      SAM_CHECK(ests.ok()) << ests.status().ToString();
      std::copy(ests.ValueOrDie().begin(), ests.ValueOrDie().end(),
                out->begin() + base);
    }
  };
  std::vector<size_t> coalesced;
  for (size_t k : {size_t{1}, size_t{8}, size_t{64}}) {
    if (k <= queries.size()) coalesced.push_back(k);
  }

  // Each leg lasts well under a second, so one timing of each swings with
  // the host: time every leg kRepeats times, interleaving the baseline and
  // batched legs so a slow spell hits both, and compare medians.
  std::vector<double> expected(queries.size());
  std::vector<double> got(queries.size());
  std::vector<double> baseline_times;
  std::vector<std::vector<double>> batched_times(coalesced.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto tb = std::chrono::steady_clock::now();
    baseline_leg(&expected);
    baseline_times.push_back(SecondsSince(tb));
    for (size_t c = 0; c < coalesced.size(); ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      batched_leg(coalesced[c], &got);
      batched_times[c].push_back(SecondsSince(t0));
      // Bit-identity assertion: a batched sweep that answers a different
      // question than the per-query baseline is a bug, not a speedup.
      for (size_t i = 0; i < queries.size(); ++i) {
        if (got[i] != expected[i]) {
          std::fprintf(stderr,
                       "error: batched estimate diverged at query %zu "
                       "(coalesced=%zu): batched=%.17g per-query=%.17g\n",
                       i, coalesced[c], got[i], expected[i]);
          return 1;
        }
      }
    }
  }
  const double baseline_qps =
      static_cast<double>(queries.size()) / Median(baseline_times);
  std::printf("%-26s %9.1f queries/s  (median of %d interleaved runs)\n",
              "baseline (K=1, no pool)", baseline_qps, kRepeats);

  struct Config {
    size_t coalesced;
    double qps;
    double speedup;
  };
  std::vector<Config> configs;
  double gated_speedup = 0;  // Best ratio at >= 8 coalesced queries.
  for (size_t c = 0; c < coalesced.size(); ++c) {
    Config config;
    config.coalesced = coalesced[c];
    config.qps = static_cast<double>(queries.size()) / Median(batched_times[c]);
    config.speedup = config.qps / baseline_qps;
    configs.push_back(config);
    if (config.coalesced >= 8 && config.speedup > gated_speedup) {
      gated_speedup = config.speedup;
    }
    std::printf("batched (coalesced=%-3zu)    %9.1f queries/s  %5.2fx\n",
                config.coalesced, config.qps, config.speedup);
  }

  if (!args.json_out.empty()) {
    FILE* f = std::fopen(args.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", args.json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\": \"estimation\", \"backend\": \"%s\", "
                 "\"threads\": %zu, \"rows\": %zu, \"queries\": %zu, "
                 "\"paths\": %zu, \"baseline_qps\": %.1f, \"configs\": [",
                 backend, threads, args.rows, queries.size(), args.paths,
                 baseline_qps);
    for (size_t i = 0; i < configs.size(); ++i) {
      std::fprintf(f,
                   "%s{\"coalesced\": %zu, \"qps\": %.1f, \"speedup\": %.3f}",
                   i == 0 ? "" : ", ", configs[i].coalesced, configs[i].qps,
                   configs[i].speedup);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", args.json_out.c_str());
  }

  if (args.min_speedup > 0 && gated_speedup < args.min_speedup) {
    std::fprintf(stderr,
                 "error: batched estimation speedup %.2fx (best at >= 8 "
                 "coalesced queries) below required %.2fx — cross-query "
                 "batching is not paying for itself\n",
                 gated_speedup, args.min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
