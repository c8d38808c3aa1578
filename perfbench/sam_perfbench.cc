// sam_perfbench — runs one workload of the repository benchmark.
//
// Drives the SAM loop (dataset -> workload -> label -> DPS training ->
// generation -> q-error evaluation -> serving) through the public API of
// the library and prints one `RECORD {...}` line with every
// metric, the output checks and the determinism digests. `run.py` builds
// this binary, runs it and prints the benchmark's result line.
//
//   sam_perfbench --workload=census_inram|imdb_spill --seed=N
//                 --seconds=S --trace=0|1 --work-dir=DIR
//
// Workloads (why each exists: README.md next to this file):
//   census_inram  census-like relation; the timed loop is Train ->
//                 SamModel::Generate (Alg 1, in RAM) -> QErrorOnDatabase on
//                 the input and a held-out workload -> a short serve round
//                 over the generated database.
//   imdb_spill    imdb-like 6-relation snowflake; the timed loop is a short
//                 Train -> GenerationPipeline::Run under a memory cap that
//                 splits every relation into partitions and spills every
//                 step -> QErrorOnDatabase on the input and a JOB-light
//                 workload -> a short serve round.
// The serve round is a closed loop against a SamServer on the generated
// database that asks both the "true" and the "model" estimator about each
// query of the benchmark's workloads.
//
// Set-up is repeated kSetupReps times and its median reported. The timed
// part repeats until --seconds have passed (at least kMinIterations times)
// and reports totals over its iterations. With --trace=1 the library's
// tracer and metrics registry are switched on for every other iteration;
// the per-layer metrics come from the traced iterations and the overhead
// from comparing them with the untraced ones.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ar/batched_estimator.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "metrics/metrics.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/schema_io.h"
#include "trace_layers.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace sam::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 7;
constexpr int kMinIterations = 3;
/// Traced runs alternate untraced and traced iterations; two of each.
constexpr int kMinTraceIterations = 4;

// Serve load: a closed loop of at most kMaxClients connections, each keeping
// kDepth requests in flight (bench_serve's default pipeline depth).
constexpr size_t kMaxClients = 4;
constexpr size_t kDepth = 4;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Returns freed heap memory to the system and resets the process's peak-RSS
/// mark (Linux >= 4.0), so PeakRssMib() reads the peak since this call.
/// Where the reset is unsupported it reads the peak of the whole process.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB.
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

// ---------------------------------------------------------------------------
// Determinism digests (FNV-1a, 64 bit).

class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.data(), s.size());
    Add("\x1f", 1);
  }
  template <typename T>
  void AddPod(const T& v) {
    Add(&v, sizeof(v));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string DatabaseDigest(const Database& db) {
  Digest d;
  for (const Table& t : db.tables()) {
    d.Add(t.name());
    d.AddPod(t.num_rows());
    for (const Column& c : t.columns()) {
      d.Add(c.name());
      for (size_t r = 0; r < c.num_rows(); ++r) d.Add(c.ValueAt(r).ToString());
    }
  }
  return d.Hex();
}

std::string TreeDigest(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  Digest d;
  for (const fs::path& f : files) {
    d.Add(fs::relative(f, dir).string());
    std::ifstream in(f, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    d.Add(ss.str());
  }
  return d.Hex();
}

std::string ParamsDigest(const MadeModel& model) {
  Digest d;
  for (const ad::Tensor& t : model.params()) {
    const Matrix& m = t.value();
    d.Add(m.data(), m.size() * sizeof(double));
  }
  return d.Hex();
}

// ---------------------------------------------------------------------------
// Output checks. Every library call, output check and serve request is one
// attempted operation; a failure is counted and fails the run.

class Ledger {
 public:
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  bool CheckOk(const Status& st, const std::string& what) {
    return Check(st.ok(), what + (st.ok() ? "" : ": " + st.ToString()));
  }
  void Count(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) Note(what + ": " + std::to_string(failed) + " failed");
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    Note(what);
  }
  void Note(const std::string& what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    if (failures_.size() < 20) failures_.push_back(what);
  }

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Workload configuration.

struct Config {
  std::string name;
  /// imdb-like snowflake generated out of core under the memory cap, instead
  /// of the census relation generated in RAM.
  bool multi = false;
  size_t rows = 0;              ///< Census rows or imdb title rows.
  size_t input_queries = 0;
  size_t test_queries = 0;
  size_t serve_queries = 0;     ///< Workload queries a serve round asks about.
  SamOptions sam;
  SchemaHints hints;
};

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

SchemaHints ImdbHints() {
  SchemaHints hints;
  hints.numeric_columns = {"title.production_year"};
  hints.numeric_bounds["title.production_year"] = {1900, 2025};
  hints.fanout_cap = 25;
  return hints;
}

Result<Config> ConfigFor(const std::string& name, uint64_t seed) {
  Config c;
  c.name = name;
  // Library defaults everywhere (thread counts included) except sizes.
  c.sam.model.seed = seed * 7919 + 13;
  c.sam.training.seed = seed * 104729 + 7;
  c.sam.generation_seed = seed * 15485863 + 3;
  c.sam.training.batch_size = 64;
  c.sam.training.learning_rate = 3e-3;
  if (name == "census_inram") {
    c.rows = 20000;
    c.input_queries = 1000;
    c.test_queries = 500;
    c.serve_queries = 500;
    c.sam.model.hidden_sizes = {48, 48};
    c.sam.training.epochs = 3;
    c.sam.training.sample_paths = 2;
    c.hints = CensusHints();
  } else if (name == "imdb_spill") {
    c.multi = true;
    c.rows = 1500;
    c.input_queries = 400;
    c.test_queries = 70;
    c.serve_queries = 470;
    c.sam.model.hidden_sizes = {32, 32};
    c.sam.training.epochs = 3;
    c.sam.training.sample_paths = 4;
    c.sam.foj_samples = 40000;
    c.hints = ImdbHints();
    // Partition fan-out P = k*192 B / max(cap/4, 1 MiB) + 1 = 2, so every
    // relation is grouped in two partitions and every step spills; the cap
    // still leaves room for a keyed commit window of 2 on the root relation.
    c.sam.memory_cap_bytes = 20ll << 20;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Benchmark spans: every public call into a module is wrapped in a span named
// "<module>.<call>" so the traced run can attribute time to layers.

template <typename F>
auto Call(const char* span, double* seconds, F&& f) {
  obs::TraceSpan s(span, "perfbench");
  const auto t0 = Clock::now();
  auto result = f();
  *seconds += SecondsSince(t0);
  return result;
}

/// Direct measurements of one unit of work (a set-up or an iteration) that
/// feed the per-layer metrics next to the registry and the spans.
struct UnitFacts {
  double workload_generate_s = 0;
  double label_queries = 0;
  double label_s = 0;
  double eval_queries = 0;
  double eval_s = 0;
  double train_final_loss = 0;
  double spill_bytes = 0;
  double rows_written = 0;
  double peak_reserved = 0;
  double plan_hits = 0;
  double plan_lookups = 0;
  double shed = 0;
  double input_qerror_p90 = 0;
  double test_qerror_p90 = 0;
};

// ---------------------------------------------------------------------------
// Set-up: dataset, workloads and labels.

struct Setup {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload input;
  Workload test;
  int64_t foj_size = 0;
};

Setup BuildData(const Config& cfg, uint64_t seed, Ledger* ledger,
                UnitFacts* facts) {
  Setup s;
  double unused = 0;
  s.db = Call("datasets.Make", &unused, [&] {
    return std::make_unique<Database>(
        cfg.multi ? MakeImdbLike(cfg.rows, seed * 47 + 5)
                  : MakeCensusLike(cfg.rows, seed * 31 + 1));
  });
  auto exec = Call("engine.Create", &unused,
                   [&] { return Executor::Create(s.db.get()); });
  if (!ledger->CheckOk(exec.status(), "Executor::Create")) return s;
  s.exec = exec.MoveValue();
  s.foj_size = s.exec->FullOuterJoinSize();

  auto input = Call("workload.Generate", &facts->workload_generate_s, [&] {
    if (cfg.multi) {
      MultiRelationWorkloadOptions o;
      o.num_queries = cfg.input_queries;
      o.seed = seed * 53 + 6;
      return GenerateMultiRelationWorkload(*s.db, *s.exec, o);
    }
    SingleRelationWorkloadOptions o;
    o.num_queries = cfg.input_queries;
    o.seed = seed * 37 + 2;
    return GenerateSingleRelationWorkload(*s.db, "census", *s.exec, o);
  });
  auto test = Call("workload.Generate", &facts->workload_generate_s, [&] {
    if (cfg.multi) {
      JobLightWorkloadOptions o;
      o.num_queries = cfg.test_queries;
      o.seed = seed * 59 + 8;
      return GenerateJobLightWorkload(*s.db, *s.exec, o);
    }
    SingleRelationWorkloadOptions o;
    o.num_queries = cfg.test_queries;
    o.seed = seed * 61 + 9;
    return GenerateSingleRelationWorkload(*s.db, "census", *s.exec, o);
  });
  if (!ledger->CheckOk(input.status(), "input workload") ||
      !ledger->CheckOk(test.status(), "test workload")) {
    return s;
  }
  s.input = input.MoveValue();
  s.test = RemoveDuplicateQueries(s.input, test.MoveValue());

  // Labelling: the generators label with per-query Cardinality; the batch
  // path must agree with every stored label.
  Workload all = s.input;
  all.insert(all.end(), s.test.begin(), s.test.end());
  auto labels = Call("engine.ParallelCardinality", &facts->label_s,
                     [&] { return s.exec->ParallelCardinality(all); });
  facts->label_queries += static_cast<double>(all.size());
  if (ledger->CheckOk(labels.status(), "label workload")) {
    size_t mismatched = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (labels.ValueOrDie()[i] != all[i].cardinality) ++mismatched;
    }
    ledger->Check(mismatched == 0,
                  "ParallelCardinality labels differ from the generator's");
  }
  return s;
}

// ---------------------------------------------------------------------------
// The SAM loop: train -> generate -> evaluate.

struct LoopResult {
  bool ok = false;
  double train_s = 0;
  double gen_s = 0;
  double eval_s = 0;
  double train_queries = 0;  ///< epochs x |W|.
  double gen_rows = 0;
  MetricSummary input_q;
  MetricSummary test_q;
  std::string db_digest;
  std::string params_digest;
  std::shared_ptr<const SamModel> model;
  std::unique_ptr<Database> generated;
  std::unique_ptr<Executor> generated_exec;
};

LoopResult RunLoop(const Config& cfg, const Setup& s, const std::string& work,
                   Ledger* ledger, UnitFacts* facts) {
  LoopResult r;
  auto trained = Call("ar.Train", &r.train_s, [&] {
    return SamModel::Train(*s.db, s.input, cfg.hints, s.foj_size, cfg.sam);
  });
  if (!ledger->CheckOk(trained.status(), "SamModel::Train")) return r;
  std::shared_ptr<SamModel> sam(trained.MoveValue().release());
  r.train_queries = static_cast<double>(cfg.sam.training.epochs) *
                    static_cast<double>(s.input.size());
  if (!sam->training_stats().empty()) {
    facts->train_final_loss = sam->training_stats().back().mean_loss;
  }
  r.params_digest = ParamsDigest(*sam->model());
  r.model = sam;

  if (cfg.multi) {
    GenerationPipelineOptions popts;
    popts.out_dir = work + "/out";
    popts.work_dir = work + "/spill";
    auto run = Call("sam.GenerationPipeline.Run", &r.gen_s, [&] {
      GenerationPipeline pipeline(sam.get(), popts);
      return pipeline.Run();
    });
    if (!ledger->CheckOk(run.status(), "GenerationPipeline::Run")) return r;
    const GenerationRunSummary& sum = run.ValueOrDie();
    if (!ledger->Check(sum.completed, "pipeline run did not complete")) return r;
    ledger->Check(sum.peak_reserved <= cfg.sam.memory_cap_bytes,
                  "peak reservation " + std::to_string(sum.peak_reserved) +
                      " exceeds the cap");
    r.gen_rows = static_cast<double>(sum.rows_written);
    facts->spill_bytes = static_cast<double>(sum.spill_bytes);
    facts->rows_written = static_cast<double>(sum.rows_written);
    facts->peak_reserved = static_cast<double>(sum.peak_reserved);
    r.db_digest = TreeDigest(popts.out_dir);
    auto loaded = Call("storage.LoadDatabase", &r.eval_s,
                       [&] { return LoadDatabase(popts.out_dir); });
    if (!ledger->CheckOk(loaded.status(), "LoadDatabase")) return r;
    r.generated = std::make_unique<Database>(loaded.MoveValue());
  } else {
    auto gen = Call("sam.Generate", &r.gen_s, [&] { return sam->Generate(); });
    if (!ledger->CheckOk(gen.status(), "SamModel::Generate")) return r;
    r.generated = std::make_unique<Database>(gen.MoveValue());
    for (const Table& t : r.generated->tables()) {
      r.gen_rows += static_cast<double>(t.num_rows());
    }
    r.db_digest = DatabaseDigest(*r.generated);
  }

  // Size guarantee (every relation here is keyed, or the single relation of
  // Alg 1) and referential integrity of the generated database.
  for (const Table& t : s.db->tables()) {
    const Table* g = r.generated->FindTable(t.name());
    ledger->Check(g != nullptr && g->num_rows() == t.num_rows(),
                  "generated |" + t.name() + "| != catalog |T|");
  }
  ledger->CheckOk(r.generated->ValidateIntegrity(), "ValidateIntegrity");

  auto gexec = Call("engine.Create", &r.eval_s,
                    [&] { return Executor::Create(r.generated.get()); });
  if (!ledger->CheckOk(gexec.status(), "Executor::Create(generated)")) return r;
  r.generated_exec = gexec.MoveValue();
  double qerror_s = 0;
  auto in_q = Call("metrics.QErrorOnDatabase", &qerror_s, [&] {
    return QErrorOnDatabase(*r.generated_exec, s.input);
  });
  auto test_q = Call("metrics.QErrorOnDatabase", &qerror_s, [&] {
    return QErrorOnDatabase(*r.generated_exec, s.test);
  });
  r.eval_s += qerror_s;
  facts->eval_s += qerror_s;
  facts->eval_queries += static_cast<double>(s.input.size() + s.test.size());
  if (!ledger->CheckOk(in_q.status(), "QErrorOnDatabase(input)") ||
      !ledger->CheckOk(test_q.status(), "QErrorOnDatabase(test)")) {
    return r;
  }
  r.input_q = in_q.ValueOrDie();
  r.test_q = test_q.ValueOrDie();
  facts->input_qerror_p90 = r.input_q.p90;
  facts->test_qerror_p90 = r.test_q.p90;
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Serve load: the benchmark's own workloads as requests, their oracle, and
// closed-loop rounds.

struct ServeRequest {
  uint32_t query = 0;  ///< Index into ServePlan::queries.
  bool model = false;
};

/// The requests of a serve round. The queries are the held-out workload
/// followed by the input workload, in generated order with their natural
/// repeats, cut to `serve_queries`. Every query is asked of both estimators,
/// "true" first, as a q-error evaluation of the model pairs them; there is no
/// measured production mix to take the split from instead. Query j goes to
/// connection j mod clients.
struct ServePlan {
  std::vector<Query> queries;
  std::vector<std::vector<ServeRequest>> per_client;
  std::vector<std::vector<std::string>> lines;
  double repeat_share = 0;  ///< Share of the queries that repeat an earlier one.
};

ServePlan MakeServePlan(const Config& cfg, const Setup& s) {
  ServePlan plan;
  plan.queries = s.test;
  plan.queries.insert(plan.queries.end(), s.input.begin(), s.input.end());
  plan.queries.resize(std::min(plan.queries.size(), cfg.serve_queries));
  const size_t clients =
      std::min<size_t>(kMaxClients, std::max(1u, std::thread::hardware_concurrency()));
  plan.per_client.resize(clients);
  plan.lines.resize(clients);
  std::set<std::string> seen;
  size_t repeats = 0;
  for (size_t j = 0; j < plan.queries.size(); ++j) {
    const std::string text = obs::EscapeJson(EncodeWorkloadQuery(plan.queries[j]));
    if (!seen.insert(text).second) ++repeats;
    const size_t c = j % clients;
    for (const bool model : {false, true}) {
      plan.lines[c].push_back("{\"id\": " + std::to_string(plan.lines[c].size()) +
                              ", \"type\": \"estimate\", \"estimator\": \"" +
                              (model ? "model" : "true") + "\", \"query\": \"" + text +
                              "\"}");
      plan.per_client[c].push_back({static_cast<uint32_t>(j), model});
    }
  }
  plan.repeat_share = plan.queries.empty()
                          ? 0
                          : static_cast<double>(repeats) /
                                static_cast<double>(plan.queries.size());
  return plan;
}

/// Expected answers for every query of the plan: executor cardinalities and
/// the offline batched estimator's answers (the server's seed and default
/// path budget).
struct Oracle {
  std::vector<int64_t> cards;
  std::vector<double> estimates;
};

Result<Oracle> ComputeOracle(const ServePlan& plan, const Executor& exec,
                             const SamModel& model) {
  Oracle o;
  SAM_ASSIGN_OR_RETURN(o.cards, exec.ParallelCardinality(plan.queries));
  // Estimates do not depend on batch composition, so the oracle estimates a
  // server-sized batch at a time: one call over every query would retain a
  // block scratch per 256 trajectories and inflate the peak RSS metric.
  constexpr size_t kChunk = 16;
  BatchedProgressiveEstimator estimator(model.model());
  for (size_t i = 0; i < plan.queries.size(); i += kChunk) {
    const std::vector<Query> chunk(
        plan.queries.begin() + static_cast<ptrdiff_t>(i),
        plan.queries.begin() + static_cast<ptrdiff_t>(std::min(i + kChunk, plan.queries.size())));
    SAM_ASSIGN_OR_RETURN(
        std::vector<double> est,
        estimator.EstimateBatch(chunk, serve::ServeOptions{}.estimate_paths_default));
    o.estimates.insert(o.estimates.end(), est.begin(), est.end());
  }
  return o;
}

struct RoundResult {
  double seconds = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;   ///< "Overloaded" answers; other errors count in requests - ok.
  uint64_t wrong = 0;  ///< OK responses whose answer differs from the oracle.
  bool transport_failed = false;
  std::vector<double> latencies_ms;
  std::string answers_digest;
};

RoundResult RunRound(int port, const ServePlan& plan, const Oracle& oracle) {
  const size_t clients = plan.per_client.size();
  struct ClientState {
    std::vector<double> latencies_ms;
    std::vector<std::string> answers;  ///< Raw answer text per request.
    uint64_t ok = 0, shed = 0, wrong = 0;
    bool transport_failed = false;
  };
  std::vector<ClientState> states(clients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& st = states[c];
      const auto& reqs = plan.per_client[c];
      const auto& lines = plan.lines[c];
      const size_t n = reqs.size();
      st.answers.resize(n);
      st.latencies_ms.reserve(n);
      auto client = serve::ServeClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        st.transport_failed = true;
        return;
      }
      serve::ServeClient& cl = client.ValueOrDie();
      std::vector<Clock::time_point> sent_at(n);
      size_t sent = 0;
      size_t received = 0;
      while (received < n) {
        while (sent < n && sent - received < kDepth) {
          sent_at[sent] = Clock::now();
          if (!cl.Send(lines[sent]).ok()) {
            st.transport_failed = true;
            return;
          }
          ++sent;
        }
        auto line = cl.ReceiveLine();
        const auto now = Clock::now();
        if (!line.ok()) {
          st.transport_failed = true;
          return;
        }
        ++received;
        auto doc = obs::ParseJson(line.ValueOrDie());
        const obs::JsonValue* id = doc.ok() ? doc.ValueOrDie().Find("id") : nullptr;
        const int64_t k = id != nullptr ? static_cast<int64_t>(id->number_value) : -1;
        if (k < 0 || k >= static_cast<int64_t>(n)) continue;
        const size_t i = static_cast<size_t>(k);
        st.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sent_at[i]).count());
        const obs::JsonValue& v = doc.ValueOrDie();
        const obs::JsonValue* okv = v.Find("ok");
        if (okv == nullptr || !okv->bool_value) {
          const obs::JsonValue* err = v.Find("error");
          if (err != nullptr && err->string_value.find("overloaded") != std::string::npos) {
            ++st.shed;
          }
          continue;
        }
        ++st.ok;
        const ServeRequest& req = reqs[i];
        const obs::JsonValue* arr = v.Find(req.model ? "estimates" : "cards");
        bool right = arr != nullptr && arr->is_array() && arr->array_items.size() == 1;
        if (right) {
          const double got = arr->array_items[0].number_value;
          right = req.model ? got == oracle.estimates[req.query]
                            : got == static_cast<double>(oracle.cards[req.query]);
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", got);
          st.answers[i] = buf;
        }
        if (!right) ++st.wrong;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RoundResult r;
  r.seconds = SecondsSince(t0);
  Digest d;
  for (size_t c = 0; c < clients; ++c) {
    const ClientState& st = states[c];
    r.requests += plan.per_client[c].size();
    r.ok += st.ok;
    r.shed += st.shed;
    r.wrong += st.wrong;
    r.transport_failed |= st.transport_failed;
    r.latencies_ms.insert(r.latencies_ms.end(), st.latencies_ms.begin(),
                          st.latencies_ms.end());
    for (const std::string& a : st.answers) d.Add(a);
  }
  r.answers_digest = d.Hex();
  return r;
}

/// Plan-cache counters from the server's stats object.
void PlanCacheCounts(const serve::SamServer& server, double* hits, double* misses) {
  auto doc = obs::ParseJson(server.StatsJson());
  if (!doc.ok()) return;
  const obs::JsonValue* pc = doc.ValueOrDie().Find("plan_cache");
  if (pc == nullptr) return;
  if (const obs::JsonValue* h = pc->Find("hits")) *hits = h->number_value;
  if (const obs::JsonValue* m = pc->Find("misses")) *misses = m->number_value;
}

/// One serve round against `server` with the checks and per-layer facts.
RoundResult ServeRound(const serve::SamServer& server, const ServePlan& plan,
                       const Oracle& oracle, Ledger* ledger, UnitFacts* facts) {
  double h0 = 0, m0 = 0, h1 = 0, m1 = 0;
  PlanCacheCounts(server, &h0, &m0);
  double unused = 0;
  RoundResult r = Call("serve.ClosedLoop", &unused,
                       [&] { return RunRound(server.port(), plan, oracle); });
  PlanCacheCounts(server, &h1, &m1);
  ledger->Check(!r.transport_failed, "serve client transport");
  ledger->Count(r.requests, r.requests - r.ok, "serve error/shed/timeout responses");
  ledger->Count(r.ok, r.wrong, "serve answers differing from the offline oracle");
  facts->plan_hits += h1 - h0;
  facts->plan_lookups += (h1 - h0) + (m1 - m0);
  facts->shed += static_cast<double>(r.shed);
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer metrics. Values only: run.py takes names and units from
// BENCHMARK.json and checks that the two agree.

const char* kLayers[] = {"datasets", "workload", "engine", "ar",
                         "sam",      "storage",  "serve",  "metrics"};

void ResetObservability() {
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
}

void SetObservability(bool on) {
  obs::EnableTracing(on);
  obs::EnableMetrics(on);
}

/// Per-layer values of one traced unit of work, from the registry, the
/// recorded spans and the unit's direct measurements.
std::map<std::string, double> LayerValues(const UnitFacts& f) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::vector<obs::TraceEvent> ev = obs::Tracer::Global().Snapshot();
  auto counter = [&](const char* n) {
    return static_cast<double>(reg.GetCounter(n)->Value());
  };
  std::map<std::string, double> v;
  v["workload.generate_s"] = f.workload_generate_s;
  v["engine.label_qps"] = f.label_s > 0 ? f.label_queries / f.label_s : 0;
  v["ar.train_step_ms_p50"] = Median(SpanDurationsMs(ev, "train/step"));
  v["ar.train_steps"] = counter("sam.train.steps");
  v["ar.train_final_loss"] = f.train_final_loss;
  v["ar.made_forward_rows"] = counter("sam.made.forward_rows");
  v["ar.made_cond_probs"] = counter("sam.made.cond_probs");
  v["sam.sample_s"] =
      SpanSeconds(ev, {"generate/sample_foj", "generate/pipeline/sample"});
  v["sam.foj_samples"] = counter("sam.foj.samples");
  // The pipeline's prefetch and commit spans nest inside its partition span.
  v["sam.group_merge_s"] = SpanSeconds(
      ev, {"generate/ipw_scaling", "generate/relation/", "generate/pipeline/partition"});
  v["sam.pass2_s"] = SpanSeconds(ev, {"generate/pipeline/pass2"});
  v["sam.assemble_s"] =
      SpanSeconds(ev, {"generate/pipeline/assemble", "generate/pipeline/publish"});
  v["sam.commit_parallelism"] = reg.GetGauge("sam.gen.commit_parallelism")->Max();
  v["sam.partitions_prefetched"] = counter("sam.generate.partitions_prefetched");
  v["sam.shortfall_rows"] = counter("sam.generate.shortfall_rows");
  v["sam.leftover_mass_dropped"] =
      reg.GetGauge("sam.generate.leftover_mass_dropped")->Max();
  v["storage.spill_bytes"] = f.spill_bytes;
  v["storage.spill_bytes_per_row"] =
      f.rows_written > 0 ? f.spill_bytes / f.rows_written : 0;
  v["storage.peak_reserved_mib"] = f.peak_reserved / (1024.0 * 1024.0);
  v["storage.artifact_commits"] = counter("sam.artifact.commits");
  v["storage.artifact_commit_ms_p50"] = Median(SpanDurationsMs(ev, "artifact/commit"));
  v["storage.artifact_retries"] = counter("sam.artifact.retries_total");
  v["engine.eval_qps"] = f.eval_s > 0 ? f.eval_queries / f.eval_s : 0;
  v["metrics.input_qerror_p90"] = f.input_qerror_p90;
  v["metrics.test_qerror_p90"] = f.test_qerror_p90;
  v["engine.serve_batch_ms_p50"] =
      Median(SpanDurationsMs(ev, "exec/parallel_cardinality_compiled"));
  v["serve.plan_cache_hit_ratio"] =
      f.plan_lookups > 0 ? f.plan_hits / f.plan_lookups : 0;
  v["serve.plan_cache_lookups"] = f.plan_lookups;
  v["serve.requests_per_batch"] = reg.GetHistogram("sam.serve.batch_size")->Snap().Mean();
  v["serve.model_batch_size_mean"] =
      reg.GetHistogram("sam.serve.model_batch_size")->Snap().Mean();
  v["serve.server_latency_ms_p99"] =
      reg.GetHistogram("sam.serve.latency_ms")->Snap().Percentile(0.99);
  v["serve.shed"] = f.shed;
  v["thread_pool.tasks"] = counter("sam.threadpool.tasks");
  v["thread_pool.queue_depth_max"] = reg.GetGauge("sam.threadpool.queue_depth")->Max();
  const std::map<std::string, double> self = SelfSecondsByLayer(ev);
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    v[std::string(layer) + ".self_s"] = it != self.end() ? it->second : 0;
  }
  v["obs.dropped_events"] = static_cast<double>(obs::Tracer::Global().dropped_events());
  return v;
}

// ---------------------------------------------------------------------------
// Main.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      a.trace = std::atoi(v) != 0;
    } else if (const char* v = value("--work-dir=")) {
      a.work_dir = v;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (a.work_dir.empty()) return Status::InvalidArgument("--work-dir is required");
  return a;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) { return "\"" + obs::EscapeJson(s) + "\""; }

std::string MetricsJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    out += (out.size() > 1 ? ", " : "") + JsonString(name) + ": " + JsonNumber(v);
  }
  return out + "}";
}

int Run(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args args = parsed.MoveValue();
  auto config = ConfigFor(args.workload, args.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 2;
  }
  const Config cfg = config.MoveValue();
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir);

  Ledger ledger;
  std::map<std::string, std::vector<double>> samples;  // End-to-end samples.
  std::map<std::string, std::vector<double>> setup_layers, iter_layers;
  std::map<std::string, std::string> digests;
  auto digest_check = [&](const std::string& key, const std::string& value) {
    if (value.empty()) return;
    auto [it, fresh] = digests.emplace(key, value);
    ledger.Check(fresh || it->second == value,
                 key + " digest differs between repetitions");
  };
  MetricSummary input_q, test_q;  // Of the last iteration.
  auto record_loop = [&](const LoopResult& r) {
    samples["train_queries"].push_back(r.train_queries);
    samples["train_s"].push_back(r.train_s);
    samples["gen_rows"].push_back(r.gen_rows);
    samples["gen_s"].push_back(r.gen_s);
    samples["loop_s"].push_back(r.train_s + r.gen_s + r.eval_s);
    digest_check("generated_db", r.db_digest);
    digest_check("params", r.params_digest);
  };
  // Latency percentiles are taken over every request of the untraced rounds
  // (a run has at least two, of >= 936 requests each).
  std::vector<double> latencies_ms;
  auto record_round = [&](const RoundResult& r, bool traced) {
    if (!traced) {
      samples["serve_qps"].push_back(static_cast<double>(r.ok) / r.seconds);
      latencies_ms.insert(latencies_ms.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    }
    digest_check("serve_answers", r.answers_digest);
  };
  auto record_layers = [&](std::map<std::string, std::vector<double>>* into,
                           const UnitFacts& f) {
    for (const auto& [k, v] : LayerValues(f)) (*into)[k].push_back(v);
  };

  // -- Set-up, repeated; the last repetition's state is kept. --------------
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetObservability(args.trace);
    ResetObservability();
    UnitFacts facts;
    const auto t0 = Clock::now();
    setup = BuildData(cfg, args.seed, &ledger, &facts);
    if (setup.exec == nullptr || setup.input.empty()) break;
    samples["setup_s"].push_back(SecondsSince(t0));
    if (args.trace) record_layers(&setup_layers, facts);
  }
  SetObservability(false);
  const bool setup_ok = setup.exec != nullptr && !setup.input.empty();

  // -- Timed part. ----------------------------------------------------------
  const ServePlan plan = MakeServePlan(cfg, setup);
  // Expected answers come from the first iteration's database and model;
  // the digest checks hold every later iteration to the same outputs.
  std::optional<Oracle> oracle;
  int iterations = 0;
  const int min_iterations = args.trace ? kMinTraceIterations : kMinIterations;
  const auto timed_start = Clock::now();
  while (setup_ok && (iterations < min_iterations ||
                      SecondsSince(timed_start) < args.seconds)) {
    const bool traced = args.trace && iterations % 2 == 1;
    ResetPeakRss();
    SetObservability(traced);
    ResetObservability();
    UnitFacts facts;
    LoopResult r = RunLoop(cfg, setup, args.work_dir, &ledger, &facts);
    if (!r.ok) break;
    SetObservability(false);
    // Serve the product: the generated database and the trained model.
    serve::SamServer srv(r.generated.get(), r.generated_exec.get(), r.model,
                         serve::ServeOptions{});
    if (!ledger.CheckOk(srv.Start(), "SamServer::Start")) break;
    if (!oracle) {
      auto o = ComputeOracle(plan, *r.generated_exec, *r.model);
      if (!ledger.CheckOk(o.status(), "serve oracle")) break;
      oracle = o.MoveValue();
    }
    SetObservability(traced);
    record_round(ServeRound(srv, plan, *oracle, &ledger, &facts), traced);
    SetObservability(false);
    srv.Stop();
    samples[traced ? "traced_loop_s" : "untraced_loop_s"].push_back(
        r.train_s + r.gen_s + r.eval_s);
    if (!traced) {
      record_loop(r);
      samples["peak_rss_mib"].push_back(PeakRssMib());
    }
    input_q = r.input_q;
    test_q = r.test_q;
    if (traced) record_layers(&iter_layers, facts);
    ++iterations;
  }
  SetObservability(false);
  fs::remove_all(args.work_dir, ec);
  ledger.Check(setup_ok && iterations > 0, "the timed part ran");

  // -- Report. --------------------------------------------------------------
  // The timed part's figures are totals over the untraced iterations, not
  // medians: per-iteration times are bimodal on a shared host, and a median
  // of a bimodal sample jumps between the modes from run to run.
  auto total = [&](const char* m) {
    double sum = 0;
    for (double v : samples[m]) sum += v;
    return sum;
  };
  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(samples["setup_s"]);
  e2e["train_qps"] = total("train_queries") / total("train_s");
  e2e["gen_rows_per_s"] = total("gen_rows") / total("gen_s");
  e2e["loop_s"] = total("loop_s") / static_cast<double>(samples["loop_s"].size());
  // The peak of an iteration, median over iterations: in about one run in
  // five an allocation burst lifts a whole-process peak by a third.
  e2e["peak_rss_mib"] = Median(samples["peak_rss_mib"]);
  e2e["input_qerror_p50"] = input_q.median;
  // Client-side serve figures are per-layer metrics, not bounded end-to-end
  // ones: CPU steal on a shared host moves them far more than its bound.
  const std::map<std::string, double> serve_client = {
      {"serve.client_qps", Median(samples["serve_qps"])},
      {"serve.client_p50_ms", Percentile(latencies_ms, 0.50)},
      {"serve.client_p99_ms", Percentile(latencies_ms, 0.99)},
  };

  std::map<std::string, double> layers = serve_client;
  if (args.trace) {
    // A layer that does no work in the timed part (datasets, workload
    // generation and labelling) reports its set-up work.
    for (const auto& [name, values] : iter_layers) {
      const double it = Median(values);
      layers[name] = it != 0 ? it : Median(setup_layers[name]);
    }
    // Every traced unit's count, not a median: any dropped event shows.
    double dropped = static_cast<double>(obs::Tracer::Global().dropped_events());
    for (auto* units : {&setup_layers, &iter_layers}) {
      for (double v : (*units)["obs.dropped_events"]) dropped = std::max(dropped, v);
    }
    layers["obs.dropped_events"] = dropped;
    layers["obs.trace_overhead_pct"] =
        100 * (Median(samples["traced_loop_s"]) / Median(samples["untraced_loop_s"]) - 1);
  }

  Digest all;
  for (const auto& [k, v] : digests) all.Add(k + "=" + v);
  std::printf("%s: %d set-ups, %d iterations, %zu serve latencies, digest %s\n",
              cfg.name.c_str(), kSetupReps, iterations, latencies_ms.size(),
              all.Hex().c_str());
  std::string digest_json = "{\"workload\": " + JsonString(all.Hex());
  for (const auto& [k, v] : digests) digest_json += ", " + JsonString(k) + ": " + JsonString(v);
  digest_json += "}";
  std::string samples_json = "{";
  for (const auto& [k, v] : samples) {
    samples_json += (samples_json.size() > 1 ? ", " : "") + JsonString(k) + ": [";
    for (size_t i = 0; i < v.size(); ++i) samples_json += (i > 0 ? ", " : "") + JsonNumber(v[i]);
    samples_json += "]";
  }
  samples_json += "}";
  auto qerror_json = [](const MetricSummary& q) {
    return "{\"median\": " + JsonNumber(q.median) + ", \"p90\": " + JsonNumber(q.p90) +
           ", \"mean\": " + JsonNumber(q.mean) + ", \"max\": " + JsonNumber(q.max) +
           ", \"count\": " + std::to_string(q.count) + "}";
  };
  const std::string fidelity = "{\"input_qerror\": " + qerror_json(input_q) +
                               ", \"test_qerror\": " + qerror_json(test_q) + "}";
  std::string failures = "[";
  for (size_t i = 0; i < ledger.failures().size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonString(ledger.failures()[i]);
  }
  failures += "]";
  const char* backend =
      kernels::ActiveBackend() == kernels::Backend::kAvx2 ? "avx2" : "scalar";
  const double failed_frac = ledger.attempted() > 0
                                 ? static_cast<double>(ledger.failed()) /
                                       static_cast<double>(ledger.attempted())
                                 : 1.0;
  std::printf(
      "RECORD {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"seconds\": %s, "
      "\"host\": {\"nproc\": %u, \"kernel_backend\": %s, \"build_type\": %s, "
      "\"compiler\": %s}, "
      "\"config\": {\"rows\": %zu, \"input_queries\": %zu, \"test_queries\": %zu, "
      "\"epochs\": %zu, \"foj_samples\": %zu, \"memory_cap_bytes\": %lld, "
      "\"serve_clients\": %zu, \"serve_depth\": %zu, \"serve_queries\": %zu, "
      "\"serve_requests_per_round\": %zu, \"serve_repeat_share\": %s}, "
      "\"setup_reps\": %d, \"iterations\": %d, \"serve_latency_samples\": %zu, "
      "\"serve_client\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"failed_frac\": %s, \"failures\": %s, "
      "\"digests\": %s, \"samples\": %s, \"fidelity\": %s, \"metrics\": %s}\n",
      JsonString(cfg.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, JsonNumber(args.seconds).c_str(),
      std::thread::hardware_concurrency(), JsonString(backend).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(__VERSION__).c_str(),
      cfg.rows, setup.input.size(), setup.test.size(), cfg.sam.training.epochs,
      cfg.multi ? cfg.sam.foj_samples : cfg.rows,
      static_cast<long long>(cfg.multi ? cfg.sam.memory_cap_bytes : 0),
      plan.per_client.size(), kDepth, plan.queries.size(), 2 * plan.queries.size(),
      JsonNumber(plan.repeat_share).c_str(), kSetupReps, iterations, latencies_ms.size(),
      MetricsJson(serve_client).c_str(), static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()), JsonNumber(failed_frac).c_str(),
      failures.c_str(), digest_json.c_str(), samples_json.c_str(), fidelity.c_str(),
      MetricsJson(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace sam::perfbench

int main(int argc, char** argv) { return sam::perfbench::Run(argc, argv); }
