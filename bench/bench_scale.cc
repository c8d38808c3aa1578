// bench_scale — out-of-core generation throughput under --memory-cap.
//
// Two legs, both timing GenerationPipeline::Run end to end:
//   census    single-relation generation, caps {loose, tight} x threads
//             {1, default}: the tight cap forces spill traffic, and
//             threads != 1 samples a window of the next batches on the
//             pool during the decode + spill write of batch b;
//   multirel  imdb-like snowflake with a trained model and a tight cap
//             (partition fan-out > 1): threads=1 is the fully serial
//             Group-and-Merge baseline, the parallel config prepares whole
//             partitions (decode, CSV rendering, emission lists) on the
//             worker pool and commits them in plan order. It runs as
//             kMultirelPairs alternating serial/parallel pairs; the
//             reported speedup is the median of the per-pair ratios, so
//             one noisy run cannot decide the gate.
// After timing, every pair of runs that differs only in thread counts is
// byte-compared (published CSV trees must be memcmp-identical), so a speedup
// can never come from producing different bytes; the pipeline's own budget
// high-water mark is asserted <= cap for every run.
//
// Results go to stdout and (machine-readable, for cross-PR perf tracking) to
// --json-out, default BENCH_scale.json: rows/sec per (leg, cap, threads),
// plus process peak RSS.
//
// Flags:
//   --smoke          tiny sizes (CI)
//   --rows=N         census rows                    (default 12000; smoke 3000)
//   --titles=N       imdb-like title rows           (default 1200; smoke 300)
//   --foj-samples=N  FOJ samples for the multirel leg
//                                                (default 16384; smoke 8192)
//   --threads=N      parallel-leg worker count      (default 0 = hardware)
//   --min-speedup=X  fail (exit 1) when the median multirel parallel/serial
//                    rows/sec ratio over the pairs lands below X (default
//                    0 = report only); skipped with a note on single-core
//                    machines, where the in-order commit pipeline cannot
//                    overlap anything
//   --json-out=F     output file ("" disables; default BENCH_scale.json)
//
// The working directory is a unique per-run subdirectory of the system temp
// dir and is removed on exit, so concurrent invocations never collide.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

/// Serial/parallel pairs of the multirel leg. Single runs of the smoke leg
/// spread 0.71-1.31x on a 4-vCPU host; the gate reads the median ratio.
constexpr size_t kMultirelPairs = 5;

struct Args {
  bool smoke = false;
  size_t rows = 12000;
  size_t titles = 1200;
  size_t foj_samples = 16384;
  size_t threads = 0;  // 0 = hardware concurrency.
  double min_speedup = 0;
  std::string json_out = "BENCH_scale.json";
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
      args.rows = 3000;
      args.titles = 300;
      args.foj_samples = 8192;
    } else if (const char* v = value("--rows=")) {
      args.rows = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--titles=")) {
      args.titles = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--foj-samples=")) {
      args.foj_samples = static_cast<size_t>(std::atoll(v));
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

double PeakRssMib() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Unique per-run working directory, removed on exit — previous versions of
/// this bench shared a fixed path, so two concurrent invocations (or a
/// crashed one's leftovers) corrupted each other's runs.
class ScratchDir {
 public:
  ScratchDir() {
    std::random_device rd;
    const auto d = std::filesystem::temp_directory_path() /
                   ("sam_bench_scale_" + std::to_string(::getpid()) + "_" +
                    std::to_string(rd() % 100000));
    std::filesystem::create_directories(d);
    path_ = d.string();
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reads every regular file under `dir` keyed by relative path — the
/// byte-identity oracle across thread counts.
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

struct RunResult {
  double rows_per_sec = 0;
  uint64_t rows = 0;
  int64_t peak_reserved = 0;
  std::string out_dir;
};

/// One timed pipeline run; exits the process on any pipeline error.
RunResult TimedRun(const SamModel& sam, const std::string& root,
                   const std::string& tag, size_t threads) {
  RunResult r;
  r.out_dir = root + "/out_" + tag;
  GenerationPipelineOptions popts;
  popts.out_dir = r.out_dir;
  popts.work_dir = root + "/work_" + tag;
  popts.threads = threads;
  GenerationPipeline pipeline(&sam, popts);
  const auto t0 = std::chrono::steady_clock::now();
  auto run = pipeline.Run();
  const double seconds = SecondsSince(t0);
  SAM_CHECK(run.ok()) << tag << ": " << run.status().ToString();
  SAM_CHECK(run.ValueOrDie().completed) << tag;
  r.rows = run.ValueOrDie().rows_written;
  r.peak_reserved = run.ValueOrDie().peak_reserved;
  r.rows_per_sec = static_cast<double>(r.rows) / seconds;
  return r;
}

void CheckIdentical(const RunResult& a, const RunResult& b, const char* leg) {
  SAM_CHECK(ReadTree(a.out_dir) == ReadTree(b.out_dir))
      << leg << ": published databases differ across thread counts — the "
      << "parallel commit pipeline broke the byte-identity contract";
}

void CheckCap(const RunResult& r, int64_t cap, const std::string& tag) {
  SAM_CHECK(r.peak_reserved <= cap)
      << tag << ": budget peak " << r.peak_reserved << " exceeded cap " << cap;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  ScratchDir scratch;
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("bench_scale: census rows=%zu, imdb titles=%zu, foj=%zu, "
              "hw threads=%zu, threads=%zu\n",
              args.rows, args.titles, args.foj_samples, hw, args.threads);

  // -- Census leg: single-relation, caps x threads -------------------------
  struct CensusPoint {
    int64_t cap_mib;
    size_t threads;
    double rows_per_sec;
  };
  std::vector<CensusPoint> census_points;
  {
    Database db = MakeCensusLike(args.rows, /*seed=*/71);
    auto exec = Executor::Create(&db);
    SAM_CHECK(exec.ok()) << exec.status().ToString();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 60;
    wopts.max_filters = 2;
    wopts.seed = 5;
    auto workload = GenerateSingleRelationWorkload(db, "census",
                                                   *exec.ValueOrDie(), wopts);
    SAM_CHECK(workload.ok()) << workload.status().ToString();
    for (const int64_t cap_mib : {int64_t{256}, int64_t{4}}) {
      SamOptions options;
      options.generation_batch = 512;
      options.memory_cap_bytes = cap_mib << 20;
      auto sam = SamModel::Create(db, workload.ValueOrDie(),
                                  bench::CensusHints(),
                                  static_cast<int64_t>(args.rows), options);
      SAM_CHECK(sam.ok()) << sam.status().ToString();
      sam.ValueOrDie()->model()->SyncSamplerWeights();
      RunResult serial;
      for (const size_t ct : {size_t{1}, args.threads}) {
        const std::string tag =
            "census_c" + std::to_string(cap_mib) + "_t" + std::to_string(ct);
        RunResult r = TimedRun(*sam.ValueOrDie(), scratch.path(), tag, ct);
        CheckCap(r, options.memory_cap_bytes, tag);
        if (ct == 1) {
          serial = r;
        } else {
          CheckIdentical(serial, r, "census");
        }
        census_points.push_back(CensusPoint{cap_mib, ct, r.rows_per_sec});
        std::printf("census  cap=%4lld MiB  threads=%zu  "
                    "%10.0f rows/s\n",
                    static_cast<long long>(cap_mib), ct, r.rows_per_sec);
      }
    }
  }

  // -- Multi-relation leg: tight cap, alternating serial/parallel pairs ----
  const int64_t multirel_cap = 4ll << 20;
  std::vector<double> serial_rps;
  std::vector<double> parallel_rps;
  std::vector<double> ratios;
  uint64_t multirel_rows = 0;
  {
    Database db = MakeImdbLike(args.titles, /*seed=*/13);
    auto exec = Executor::Create(&db);
    SAM_CHECK(exec.ok()) << exec.status().ToString();
    MultiRelationWorkloadOptions wopts;
    wopts.num_queries = 120;
    wopts.seed = 17;
    auto workload = GenerateMultiRelationWorkload(db, *exec.ValueOrDie(), wopts);
    SAM_CHECK(workload.ok()) << workload.status().ToString();
    SamOptions options;
    options.foj_samples = args.foj_samples;
    options.generation_batch = 4096;
    options.memory_cap_bytes = multirel_cap;
    options.model.hidden_sizes = {32, 32};
    options.training.epochs = args.smoke ? 3 : 6;
    options.training.sample_paths = 4;
    auto sam = SamModel::Train(db, workload.ValueOrDie(), bench::ImdbHints(),
                               exec.ValueOrDie()->FullOuterJoinSize(), options);
    SAM_CHECK(sam.ok()) << sam.status().ToString();
    sam.ValueOrDie()->model()->SyncSamplerWeights();

    RunResult reference;
    for (size_t p = 0; p < kMultirelPairs; ++p) {
      const std::string pair = "_p" + std::to_string(p);
      RunResult serial = TimedRun(*sam.ValueOrDie(), scratch.path(),
                                  "multirel_serial" + pair, /*threads=*/1);
      CheckCap(serial, multirel_cap, "multirel_serial" + pair);
      RunResult parallel = TimedRun(*sam.ValueOrDie(), scratch.path(),
                                    "multirel_parallel" + pair, args.threads);
      CheckCap(parallel, multirel_cap, "multirel_parallel" + pair);
      if (p == 0) {
        reference = serial;
      } else {
        CheckIdentical(reference, serial, "multirel");
      }
      CheckIdentical(reference, parallel, "multirel");
      serial_rps.push_back(serial.rows_per_sec);
      parallel_rps.push_back(parallel.rows_per_sec);
      ratios.push_back(parallel.rows_per_sec / serial.rows_per_sec);
      multirel_rows = parallel.rows;
      std::printf("multirel cap=%4lld MiB  pair %zu  serial %10.0f rows/s  "
                  "parallel %10.0f rows/s  %5.2fx\n",
                  static_cast<long long>(multirel_cap >> 20), p,
                  serial.rows_per_sec, parallel.rows_per_sec, ratios.back());
    }
  }

  const double speedup = Summarize(ratios).median;
  std::printf("multirel median speedup over %zu pairs: %.2fx\n", ratios.size(),
              speedup);
  const double peak_rss_mib = PeakRssMib();
  std::printf("peak RSS %.1f MiB\n", peak_rss_mib);

  if (!args.json_out.empty()) {
    FILE* f = std::fopen(args.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", args.json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\": \"scale\", \"hw_threads\": %zu, "
                 "\"threads\": %zu, \"peak_rss_mib\": %.1f, "
                 "\"census\": [",
                 hw, args.threads, peak_rss_mib);
    for (size_t i = 0; i < census_points.size(); ++i) {
      std::fprintf(f,
                   "%s{\"cap_mib\": %lld, \"threads\": %zu, "
                   "\"rows_per_sec\": %.0f}",
                   i == 0 ? "" : ", ",
                   static_cast<long long>(census_points[i].cap_mib),
                   census_points[i].threads,
                   census_points[i].rows_per_sec);
    }
    std::fprintf(f,
                 "], \"multirel\": {\"cap_mib\": %lld, \"rows\": %llu, "
                 "\"pairs\": %zu, \"serial_rows_per_sec\": %.0f, "
                 "\"parallel_rows_per_sec\": %.0f, \"speedup\": %.3f}}\n",
                 static_cast<long long>(multirel_cap >> 20),
                 static_cast<unsigned long long>(multirel_rows), ratios.size(),
                 Summarize(serial_rps).median,
                 Summarize(parallel_rps).median, speedup);
    std::fclose(f);
    std::printf("wrote %s\n", args.json_out.c_str());
  }

  if (args.min_speedup > 0) {
    if (hw <= 1) {
      std::printf("note: single-core machine, --min-speedup=%.2f not "
                  "enforced (the in-order commit pipeline has nothing to "
                  "overlap with)\n",
                  args.min_speedup);
    } else if (speedup < args.min_speedup) {
      std::fprintf(stderr,
                   "error: median parallel-commit speedup %.2fx below "
                   "required %.2fx at cap=%lld MiB — the prepared-partition "
                   "pipeline is not paying for itself\n",
                   speedup, args.min_speedup,
                   static_cast<long long>(multirel_cap >> 20));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
