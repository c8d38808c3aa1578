// bench_serve — load generator for the `samdb serve` daemon.
//
// Self-hosted mode (default): builds a census-like database in process,
// starts an in-process server and drives it with a closed-loop client fleet
// (requests coalesced across clients into one parallel executor call on a
// persistent pool, plans cached), reporting p50/p99 latency. Its throughput
// is compared against a client-side baseline that answers the same
// clients x requests queries with one in-process
// `Executor::ParallelCardinality` call each, one call at a time: per-call
// pool construction and query compilation, no coalescing, no plan cache and
// no socket I/O.
//
// External mode (--port=N [--host=A] --workload=FILE): drives an already
// running daemon with queries from a workload file; used by the CI smoke.
//
// Flags:
//   --smoke         tiny sizes (CI)
//   --clients=N     concurrent client connections   (default 8)
//   --requests=N    requests per client             (default 200; smoke 40)
//   --pipeline=N    outstanding requests per client (default 4)
//   --rows=N        census rows, self-hosted mode   (default 40000)
//   --min-speedup=X fail (exit 1) when the serve/baseline throughput
//                   ratio lands below X (default 0 = report only); the CI
//                   gate uses a conservative threshold so a regression to
//                   per-request dispatch fails the build
//   --port=N        external daemon port (switches to external mode)
//   --host=A        external daemon host (default 127.0.0.1)
//   --workload=F    queries for external mode (workload text format)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "sam/sam_model.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace sam {
namespace {

struct Args {
  bool smoke = false;
  size_t clients = 8;
  size_t requests = 200;
  size_t pipeline = 4;
  size_t rows = 40000;
  double min_speedup = 0;  // 0 = report only.
  int port = 0;            // 0 = self-hosted.
  std::string host = "127.0.0.1";
  std::string workload;
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
      args.requests = 40;
      args.rows = 4000;
    } else if (const char* v = value("--clients=")) {
      args.clients = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--requests=")) {
      args.requests = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--pipeline=")) {
      args.pipeline = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--rows=")) {
      args.rows = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--min-speedup=")) {
      args.min_speedup = std::atof(v);
    } else if (const char* v = value("--port=")) {
      args.port = std::atoi(v);
    } else if (const char* v = value("--host=")) {
      args.host = v;
    } else if (const char* v = value("--workload=")) {
      args.workload = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

std::string EstimateRequest(int64_t id, const std::string& query_text) {
  return "{\"id\": " + std::to_string(id) + ", \"type\": \"estimate\", "
         "\"query\": \"" + obs::EscapeJson(query_text) + "\"}";
}

struct LoadResult {
  double seconds = 0;
  uint64_t ok_responses = 0;
  uint64_t errors = 0;
  std::string stats_json;
};

/// Closed-loop fleet: every client keeps up to `pipeline` requests in
/// flight; total offered load is clients * requests.
Result<LoadResult> RunLoad(const Args& args, const std::string& host, int port,
                           const std::vector<std::string>& request_lines) {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::ServeClient::Connect(host, port);
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      serve::ServeClient& cl = client.ValueOrDie();
      size_t sent = 0;
      size_t received = 0;
      size_t inflight = 0;
      while (received < args.requests && !failed.load()) {
        while (sent < args.requests && inflight < args.pipeline) {
          const std::string& line =
              request_lines[(c * args.requests + sent) % request_lines.size()];
          if (!cl.Send(line).ok()) {
            failed.store(true);
            return;
          }
          ++sent;
          ++inflight;
        }
        auto response = cl.ReceiveLine();
        if (!response.ok()) {
          failed.store(true);
          return;
        }
        ++received;
        --inflight;
        if (response.ValueOrDie().find("\"ok\": true") != std::string::npos) {
          ok.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.ok_responses = ok.load();
  result.errors = errors.load();
  if (failed.load()) return Status::IOError("a load client failed");

  auto stats_client = serve::ServeClient::Connect(host, port);
  if (stats_client.ok()) {
    auto stats =
        stats_client.ValueOrDie().Call("{\"id\": 0, \"type\": \"stats\"}");
    if (stats.ok()) {
      const obs::JsonValue* s = stats.ValueOrDie().Find("stats");
      if (s != nullptr && s->is_object()) {
        // Re-serialise the interesting subset compactly.
        auto num = [s](const char* key, const char* sub) -> double {
          const obs::JsonValue* v = s->Find(key);
          if (v != nullptr && sub != nullptr) v = v->Find(sub);
          return v != nullptr ? v->number_value : 0.0;
        };
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "p50=%.3gms p99=%.3gms cache_hits=%.0f "
                      "cache_misses=%.0f batches=%.0f",
                      num("latency_ms", "p50"), num("latency_ms", "p99"),
                      num("plan_cache", "hits"), num("plan_cache", "misses"),
                      num("batches", nullptr));
        result.stats_json = buf;
      }
    }
  }
  return result;
}

void Report(const char* label, const Args& args, const LoadResult& r) {
  const double total =
      static_cast<double>(args.clients) * static_cast<double>(args.requests);
  std::printf("%-28s %8.0f req/s  ok=%llu err=%llu  %s\n", label,
              total / r.seconds,
              static_cast<unsigned long long>(r.ok_responses),
              static_cast<unsigned long long>(r.errors),
              r.stats_json.c_str());
}

int RunExternal(const Args& args) {
  auto workload = LoadWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> lines;
  int64_t id = 1;
  for (const Query& q : workload.ValueOrDie()) {
    lines.push_back(EstimateRequest(id++, EncodeWorkloadQuery(q)));
  }
  auto result = RunLoad(args, args.host, args.port, lines);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  Report("external daemon", args, result.ValueOrDie());
  return result.ValueOrDie().errors == 0 ? 0 : 1;
}

int RunSelfHosted(const Args& args) {
  obs::EnableMetrics(true);
  Database db = MakeCensusLike(args.rows, /*seed=*/7);
  auto exec = Executor::Create(&db);
  if (!exec.ok()) {
    std::fprintf(stderr, "error: %s\n", exec.status().ToString().c_str());
    return 1;
  }
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 128;
  wopts.seed = 11;
  auto workload =
      GenerateSingleRelationWorkload(db, "census", *exec.ValueOrDie(), wopts);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }

  SamOptions options;
  auto sam = SamModel::Create(db, workload.ValueOrDie(), SchemaHints{},
                              static_cast<int64_t>(args.rows), options);
  if (!sam.ok()) {
    std::fprintf(stderr, "error: %s\n", sam.status().ToString().c_str());
    return 1;
  }
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  std::shared_ptr<const SamModel> model(sam.MoveValue().release());

  std::vector<std::string> lines;
  int64_t id = 1;
  for (const Query& q : workload.ValueOrDie()) {
    lines.push_back(EstimateRequest(id++, EncodeWorkloadQuery(q)));
  }

  std::printf("bench_serve: %zu clients x %zu requests (pipeline %zu), "
              "census rows=%zu\n",
              args.clients, args.requests, args.pipeline, args.rows);
  const uint64_t expected = args.clients * args.requests;

  // Baseline: one `Executor::ParallelCardinality` call per request, one call
  // at a time, in process.
  LoadResult baseline;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < expected; ++r) {
    auto cards = exec.ValueOrDie()->ParallelCardinality(
        {workload.ValueOrDie()[r % workload.ValueOrDie().size()]});
    if (!cards.ok()) {
      std::fprintf(stderr, "error: %s\n", cards.status().ToString().c_str());
      return 1;
    }
  }
  baseline.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  baseline.ok_responses = expected;
  Report("baseline (1 call/request)", args, baseline);

  obs::MetricsRegistry::Global().Reset();
  serve::ServeOptions sopts;
  sopts.queue_capacity = args.clients * args.pipeline + 16;
  serve::SamServer server(&db, exec.ValueOrDie().get(), model, sopts);
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  auto result = RunLoad(args, "127.0.0.1", server.port(), lines);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  server.Stop();
  const LoadResult batched = result.MoveValue();
  Report("serve (batched + cached)", args, batched);

  const double speedup = baseline.seconds / batched.seconds;
  std::printf("cross-client batching speedup: %.2fx\n", speedup);

  if (batched.ok_responses != expected) {
    std::fprintf(stderr, "error: lost responses (want %llu)\n",
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  if (args.min_speedup > 0 && speedup < args.min_speedup) {
    std::fprintf(stderr,
                 "error: speedup %.2fx below required %.2fx — cross-client "
                 "batching is not paying for itself\n",
                 speedup, args.min_speedup);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  return args.port > 0 ? RunExternal(args) : RunSelfHosted(args);
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
