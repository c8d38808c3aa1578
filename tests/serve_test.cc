// Tests for the `samdb serve` daemon: protocol parsing, the canonical-key
// plan cache, and the live server — concurrent correctness against the batch
// executor, malformed-input resilience, zero-downtime model hot-swap, and
// graceful drain.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ar/batched_estimator.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/json.h"
#include "sam/sam_model.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/schema_io.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace sam {
namespace {

using serve::kMaxPathsPerQuery;
using serve::kMaxPathsPerRequest;
using serve::SamServer;
using serve::ServeClient;
using serve::ServeOptions;

// ---- Protocol --------------------------------------------------------------

TEST(ServeProtocolTest, ParsesEstimateRequest) {
  int64_t id = 0;
  auto req = serve::ParseRequest(
      "{\"id\": 7, \"type\": \"estimate\", "
      "\"query\": \"census\\tcensus|age|ge|i:30\\t-1\", "
      "\"estimator\": \"model\", \"paths\": 64}",
      &id);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(id, 7);
  EXPECT_EQ(req.ValueOrDie().type, serve::RequestType::kEstimate);
  ASSERT_EQ(req.ValueOrDie().queries.size(), 1u);
  EXPECT_EQ(req.ValueOrDie().queries[0].relations,
            std::vector<std::string>{"census"});
  EXPECT_TRUE(req.ValueOrDie().use_model);
  EXPECT_EQ(req.ValueOrDie().paths, 64);
}

TEST(ServeProtocolTest, MalformedRequestsNameTheProblem) {
  int64_t id = 0;
  // Not JSON at all.
  EXPECT_FALSE(serve::ParseRequest("not json", &id).ok());
  // Valid JSON, not an object.
  EXPECT_FALSE(serve::ParseRequest("[1,2]", &id).ok());
  // Missing type.
  EXPECT_FALSE(serve::ParseRequest("{\"id\": 3}", &id).ok());
  EXPECT_EQ(id, 3);  // The id is still recovered for the error response.
  // Unknown type.
  auto unknown = serve::ParseRequest("{\"id\": 4, \"type\": \"bogus\"}", &id);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("bogus"), std::string::npos);
  // estimate without query.
  EXPECT_FALSE(
      serve::ParseRequest("{\"id\": 5, \"type\": \"estimate\"}", &id).ok());
  // Bad embedded query text.
  EXPECT_FALSE(serve::ParseRequest("{\"id\": 6, \"type\": \"estimate\", "
                                   "\"query\": \"census\\tjunk\"}",
                                   &id)
                   .ok());
  // Bad estimator value.
  EXPECT_FALSE(serve::ParseRequest("{\"id\": 7, \"type\": \"estimate\", "
                                   "\"query\": \"census\\t\\t-1\", "
                                   "\"estimator\": \"maybe\"}",
                                   &id)
                   .ok());
  // Wrongly typed field.
  EXPECT_FALSE(serve::ParseRequest("{\"id\": 8, \"type\": \"estimate\", "
                                   "\"query\": 12}",
                                   &id)
                   .ok());
}

TEST(ServeProtocolTest, ResponsesRoundTripThroughJsonParser) {
  auto parse = [](const std::string& line) {
    auto v = obs::ParseJson(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.MoveValue();
  };
  obs::JsonValue v = parse(serve::CardsResponse(3, {1, 2, 3}));
  EXPECT_EQ(v.Find("id")->number_value, 3.0);
  EXPECT_TRUE(v.Find("ok")->bool_value);
  EXPECT_EQ(v.Find("cards")->array_items.size(), 3u);

  v = parse(serve::EstimatesResponse(4, {117.25}));
  EXPECT_DOUBLE_EQ(v.Find("estimates")->array_items[0].number_value, 117.25);

  v = parse(serve::ErrorResponse(
      5, Status::InvalidArgument("bad \"quoted\"\tthing")));
  EXPECT_FALSE(v.Find("ok")->bool_value);
  EXPECT_EQ(v.Find("code")->string_value, "InvalidArgument");
  EXPECT_NE(v.Find("error")->string_value.find("quoted"), std::string::npos);

  serve::JobStatus js;
  js.job = 9;
  js.state = "running";
  js.rows_written = 42;
  v = parse(serve::GenerateStatusResponse(6, js));
  EXPECT_EQ(v.Find("state")->string_value, "running");
  EXPECT_EQ(v.Find("rows")->number_value, 42.0);
}

// ---- Plan cache ------------------------------------------------------------

Query TwoPredicateQuery(bool swapped) {
  Predicate age{"census", "age", PredOp::kGe, Value(int64_t{30}), {}};
  Predicate occ{"census", "occupation", PredOp::kEq, Value(int64_t{3}), {}};
  Query q;
  q.relations = {"census"};
  q.predicates = swapped ? std::vector<Predicate>{occ, age}
                         : std::vector<Predicate>{age, occ};
  q.cardinality = swapped ? 123 : -1;  // The label must not affect the key.
  return q;
}

TEST(ServePlanCacheTest, CanonicalKeyIgnoresClauseOrderAndLabel) {
  EXPECT_EQ(serve::CanonicalQueryKey(TwoPredicateQuery(false)),
            serve::CanonicalQueryKey(TwoPredicateQuery(true)));

  Query in_a, in_b;
  in_a.relations = in_b.relations = {"census"};
  Predicate pa{"census", "age", PredOp::kIn, Value(),
               {Value(int64_t{1}), Value(int64_t{2})}};
  Predicate pb = pa;
  std::swap(pb.in_list[0], pb.in_list[1]);
  in_a.predicates = {pa};
  in_b.predicates = {pb};
  EXPECT_EQ(serve::CanonicalQueryKey(in_a), serve::CanonicalQueryKey(in_b));

  Query other = TwoPredicateQuery(false);
  other.predicates[0].literal = Value(int64_t{31});
  EXPECT_NE(serve::CanonicalQueryKey(TwoPredicateQuery(false)),
            serve::CanonicalQueryKey(other));
}

TEST(ServePlanCacheTest, LruEvictsAndCounts) {
  serve::PlanCache cache(2);
  auto plan = std::make_shared<const engine::CompiledQuery>();
  EXPECT_EQ(cache.Get("a"), nullptr);  // miss
  cache.Put("a", plan);
  cache.Put("b", plan);
  EXPECT_NE(cache.Get("a"), nullptr);  // hit; "a" becomes MRU
  cache.Put("c", plan);                // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- Live server -----------------------------------------------------------

// The database lives behind a pointer so its address is stable: the executor
// and the server both keep raw pointers to it across the fixture move.
struct ServeFixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload workload;
  std::shared_ptr<const SamModel> model;
};

ServeFixture MakeFixture(size_t rows = 1200, int64_t foj_size = -1,
                         std::vector<size_t> hidden_sizes = {64, 64}) {
  ServeFixture f;
  f.db = std::make_unique<Database>(MakeCensusLike(rows, /*seed=*/5));
  f.exec = Executor::Create(f.db.get()).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 24;
  wopts.seed = 9;
  f.workload =
      GenerateSingleRelationWorkload(*f.db, "census", *f.exec, wopts)
          .MoveValue();
  SamOptions options;
  options.model.hidden_sizes = std::move(hidden_sizes);
  auto sam = SamModel::Create(
      *f.db, f.workload, SchemaHints{},
      foj_size > 0 ? foj_size : static_cast<int64_t>(rows), options);
  SAM_CHECK_OK(sam.status());
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  f.model = std::shared_ptr<const SamModel>(sam.MoveValue().release());
  return f;
}

std::string EstimateLine(int64_t id, const Query& q, const char* estimator) {
  return "{\"id\": " + std::to_string(id) + ", \"type\": \"estimate\", "
         "\"query\": \"" + obs::EscapeJson(EncodeWorkloadQuery(q)) +
         "\", \"estimator\": \"" + estimator + "\"}";
}

ServeClient Connect(const SamServer& server) {
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  SAM_CHECK_OK(client.status());
  return client.MoveValue();
}

TEST(ServeTest, ConcurrentClientsBitIdenticalToBatchExecutor) {
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::vector<int64_t> want =
      f.exec->ParallelCardinality(f.workload).MoveValue();

  constexpr size_t kClients = 4;
  std::vector<std::vector<int64_t>> got(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client = Connect(server);
      for (size_t i = 0; i < f.workload.size(); ++i) {
        auto v = client.Call(EstimateLine(static_cast<int64_t>(i),
                                          f.workload[i], "true"));
        SAM_CHECK_OK(v.status());
        const obs::JsonValue* cards = v.ValueOrDie().Find("cards");
        SAM_CHECK(cards != nullptr && cards->array_items.size() == 1);
        got[c].push_back(
            static_cast<int64_t>(cards->array_items[0].number_value));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < kClients; ++c) EXPECT_EQ(got[c], want);

  // estimate_batch over the whole workload matches too.
  std::string batch = "{\"id\": 99, \"type\": \"estimate_batch\", "
                      "\"queries\": [";
  for (size_t i = 0; i < f.workload.size(); ++i) {
    if (i > 0) batch += ", ";
    batch += "\"" + obs::EscapeJson(EncodeWorkloadQuery(f.workload[i])) + "\"";
  }
  batch += "]}";
  ServeClient client = Connect(server);
  auto v = client.Call(batch);
  ASSERT_TRUE(v.ok());
  const obs::JsonValue* cards = v.ValueOrDie().Find("cards");
  ASSERT_NE(cards, nullptr);
  ASSERT_EQ(cards->array_items.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(cards->array_items[i].number_value),
              want[i]);
  }
  server.Stop();
}

TEST(ServeTest, PlanCacheHitsAcrossClientsAndClauseOrder) {
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  auto stats_field = [&](const char* outer, const char* inner) {
    auto v = client.Call("{\"id\": 0, \"type\": \"stats\"}");
    SAM_CHECK_OK(v.status());
    const obs::JsonValue* s = v.ValueOrDie().Find("stats");
    SAM_CHECK(s != nullptr);
    const obs::JsonValue* o = s->Find(outer);
    SAM_CHECK(o != nullptr);
    if (inner == nullptr) return o->number_value;
    const obs::JsonValue* i = o->Find(inner);
    SAM_CHECK(i != nullptr);
    return i->number_value;
  };

  ASSERT_TRUE(client.Call(EstimateLine(1, TwoPredicateQuery(false), "true"))
                  .ok());
  const double misses_after_first = stats_field("plan_cache", "misses");
  const double hits_after_first = stats_field("plan_cache", "hits");
  EXPECT_GE(misses_after_first, 1.0);

  // Same query with its conjuncts swapped: canonicalisation makes it a hit.
  ASSERT_TRUE(client.Call(EstimateLine(2, TwoPredicateQuery(true), "true"))
                  .ok());
  EXPECT_EQ(stats_field("plan_cache", "misses"), misses_after_first);
  EXPECT_GE(stats_field("plan_cache", "hits"), hits_after_first + 1.0);
  server.Stop();
}

TEST(ServeTest, MalformedRequestsGetErrorsNotCrashes) {
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  const char* bad_lines[] = {
      "garbage",
      "{\"id\": 1}",
      "{\"id\": 2, \"type\": \"bogus\"}",
      "{\"id\": 3, \"type\": \"estimate\", \"query\": \"census\\tjunk\"}",
      "{\"id\": 4, \"type\": \"estimate\", \"query\": 5}",
      "{\"id\": 5, \"type\": \"generate_status\", \"job\": 12345}",
  };
  for (const char* line : bad_lines) {
    auto v = client.Call(line);
    ASSERT_TRUE(v.ok()) << line;
    const obs::JsonValue* ok = v.ValueOrDie().Find("ok");
    ASSERT_NE(ok, nullptr) << line;
    EXPECT_FALSE(ok->bool_value) << line;
    EXPECT_NE(v.ValueOrDie().Find("error"), nullptr) << line;
  }

  // The connection and the server both survived.
  auto pong = client.Call("{\"id\": 10, \"type\": \"ping\"}");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.ValueOrDie().Find("ok")->bool_value);

  // A query referencing an unknown relation errors cleanly too (it parses,
  // then fails compilation in the dispatcher).
  auto v = client.Call("{\"id\": 11, \"type\": \"estimate\", "
                       "\"query\": \"martians\\t\\t-1\"}");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.ValueOrDie().Find("ok")->bool_value);
  server.Stop();
}

TEST(ServeTest, UnboundedModelWorkGetsErrorsNotCrashes) {
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  const std::string q =
      "\"" + obs::EscapeJson(EncodeWorkloadQuery(f.workload[0])) + "\"";
  auto batch_of = [&](size_t n) {
    std::string queries = q;
    for (size_t i = 1; i < n; ++i) queries += ", " + q;
    return "[" + queries + "]";
  };
  const std::string model = ", \"estimator\": \"model\", \"paths\": ";
  const std::string bad_lines[] = {
      // 2^62 paths for one query: its selectivity array cannot be allocated.
      "{\"id\": 1, \"type\": \"estimate\", \"query\": " + q + model +
          "4611686018427387904}",
      "{\"id\": 2, \"type\": \"estimate\", \"query\": " + q + model +
          "9223372036854775807}",
      // Four such queries: their paths sum to 2^64, which wraps to 0 rows.
      "{\"id\": 3, \"type\": \"estimate_batch\", \"queries\": " +
          batch_of(4) + model + "4611686018427387904}",
      // Within the per-query cap, but over the per-request one.
      "{\"id\": 4, \"type\": \"estimate_batch\", \"queries\": " +
          batch_of(static_cast<size_t>(kMaxPathsPerRequest /
                                       kMaxPathsPerQuery) + 1) +
          model + std::to_string(kMaxPathsPerQuery) + "}",
  };
  for (const std::string& line : bad_lines) {
    auto v = client.Call(line);
    ASSERT_TRUE(v.ok()) << line.substr(0, 120);
    EXPECT_FALSE(v.ValueOrDie().Find("ok")->bool_value) << line.substr(0, 120);
    EXPECT_NE(v.ValueOrDie().Find("error"), nullptr) << line.substr(0, 120);
  }

  // The daemon keeps serving, model estimates included.
  auto pong = client.Call("{\"id\": 10, \"type\": \"ping\"}");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.ValueOrDie().Find("ok")->bool_value);
  auto est = client.Call(EstimateLine(11, f.workload[0], "model"));
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est.ValueOrDie().Find("ok")->bool_value);
  server.Stop();
}

TEST(ServeTest, ModelWorkAtTheCapIsAnswered) {
  // A narrow model keeps 2^21 trajectories affordable under sanitizers.
  ServeFixture f = MakeFixture(/*rows=*/200, /*foj_size=*/-1, {8});
  ServeOptions sopts;
  // Queue time is not under test: a request behind an at-cap one must not
  // time out on a slow (instrumented) build.
  sopts.request_timeout_ms = 0;
  SamServer server(f.db.get(), f.exec.get(), f.model, sopts);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  // Two batches exactly at the per-request cap and one single query, all
  // written in one send before any answer is read, so the dispatcher
  // usually coalesces them into one round and has to split it into calls of
  // at most kMaxPathsPerRequest paths.
  const size_t n = static_cast<size_t>(kMaxPathsPerRequest / kMaxPathsPerQuery);
  auto quoted = [&](size_t i) {
    return "\"" +
           obs::EscapeJson(
               EncodeWorkloadQuery(f.workload[i % f.workload.size()])) +
           "\"";
  };
  std::string queries = quoted(0);
  for (size_t i = 1; i < n; ++i) queries += ", " + quoted(i);
  const std::string model = ", \"estimator\": \"model\", \"paths\": " +
                            std::to_string(kMaxPathsPerQuery) + "}";
  std::string lines;
  for (int id = 1; id <= 2; ++id) {
    lines += "{\"id\": " + std::to_string(id) +
             ", \"type\": \"estimate_batch\", \"queries\": [" + queries + "]" +
             model + "\n";
  }
  lines +=
      "{\"id\": 3, \"type\": \"estimate\", \"query\": " + quoted(0) + model;
  ASSERT_TRUE(client.Send(lines).ok());

  std::map<int64_t, std::vector<double>> answers;
  for (int i = 0; i < 3; ++i) {
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok());
    auto v = obs::ParseJson(line.ValueOrDie());
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v.ValueOrDie().Find("ok")->bool_value)
        << line.ValueOrDie().substr(0, 200);
    const obs::JsonValue* est = v.ValueOrDie().Find("estimates");
    ASSERT_NE(est, nullptr);
    std::vector<double>& a =
        answers[static_cast<int64_t>(v.ValueOrDie().Find("id")->number_value)];
    for (const obs::JsonValue& e : est->array_items) {
      a.push_back(e.number_value);
    }
  }
  ASSERT_EQ(answers.size(), 3u);
  ASSERT_EQ(answers[1].size(), n);
  // The call a request lands in changes none of its estimates.
  EXPECT_EQ(answers[1], answers[2]);
  ASSERT_EQ(answers[3].size(), 1u);
  EXPECT_EQ(answers[3][0], answers[1][0]);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(answers[1][i], answers[1][i % f.workload.size()]);
  }
  // No two of the requests fit in one call, so a correct split makes exactly
  // one estimator call per request however the rounds fell.
  auto stats = client.Call("{\"id\": 4, \"type\": \"stats\"}");
  ASSERT_TRUE(stats.ok());
  const obs::JsonValue* calls =
      stats.ValueOrDie().Find("stats")->Find("model_batches");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->number_value, 3.0);
  server.Stop();
}

TEST(ServeTest, OverlongLineGetsErrorAndDisconnect) {
  ServeFixture f = MakeFixture(/*rows=*/200);
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  // A raw socket: ServeClient frames every line with a newline.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // 2 MiB and no newline, twice the server's line cap. Sent from a thread:
  // once the server stops reading, the send ends only when the connection
  // is closed under it.
  std::thread flood([fd] {
    const std::string blob(size_t{2} << 20, 'x');
    size_t sent = 0;
    while (sent < blob.size()) {
      const ssize_t n =
          ::send(fd, blob.data() + sent, blob.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  });
  // Everything the server sends until it closes the connection.
  std::string received;
  bool closed = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = true;
    } else {
      received.append(buf, static_cast<size_t>(n));
    }
  }
  flood.join();
  ::close(fd);
  EXPECT_TRUE(closed) << "the server kept the connection open";
  ASSERT_FALSE(received.empty());
  ASSERT_EQ(received.back(), '\n');
  received.pop_back();
  EXPECT_EQ(received.find('\n'), std::string::npos) << "one response line";
  auto v = obs::ParseJson(received);
  ASSERT_TRUE(v.ok()) << received;
  EXPECT_FALSE(v.ValueOrDie().Find("ok")->bool_value);
  EXPECT_EQ(v.ValueOrDie().Find("code")->string_value, "InvalidArgument");

  // The server survived and still serves other clients.
  ServeClient client = Connect(server);
  auto pong = client.Call("{\"id\": 1, \"type\": \"ping\"}");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.ValueOrDie().Find("ok")->bool_value);
  server.Stop();
}

TEST(ServeTest, GenerateErrorsCountAsErrors) {
  // Regression: generate/generate_status error responses were reported with
  // is_error=false, so the errors counter undercounted.
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  auto v = client.Call("{\"id\": 1, \"type\": \"generate_status\", "
                       "\"job\": 424242}");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.ValueOrDie().Find("ok")->bool_value);

  auto stats = client.Call("{\"id\": 0, \"type\": \"stats\"}");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.ValueOrDie().Find("stats")->Find("errors")->number_value,
            1.0);
  server.Stop();
}

TEST(ServeTest, OverloadShedsWithCleanError) {
  ServeFixture f = MakeFixture();
  ServeOptions sopts;
  sopts.queue_capacity = 0;  // Every estimate sheds immediately.
  SamServer server(f.db.get(), f.exec.get(), f.model, sopts);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);
  auto v = client.Call(EstimateLine(1, f.workload[0], "true"));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.ValueOrDie().Find("ok")->bool_value);
  EXPECT_NE(
      v.ValueOrDie().Find("error")->string_value.find("overloaded"),
      std::string::npos);
  // Fast-path requests still work.
  EXPECT_TRUE(client.Call("{\"id\": 2, \"type\": \"ping\"}").ok());
  server.Stop();
}

TEST(ServeTest, HotSwapMidTrafficServesOldOrNewModelOnly) {
  // Two models over the same schema whose unconstrained estimates differ
  // exactly: an untrained model estimates |T| = the foj_size it was built
  // with (500 vs 1000). Every served estimate must equal one of the two —
  // never a torn or blended value.
  ServeFixture f = MakeFixture(/*rows=*/500, /*foj_size=*/500);
  SamOptions options;
  auto sam_new =
      SamModel::Create(*f.db, f.workload, SchemaHints{}, 1000, options);
  SAM_CHECK_OK(sam_new.status());
  sam_new.ValueOrDie()->model()->SyncSamplerWeights();
  std::shared_ptr<const SamModel> new_model(sam_new.MoveValue().release());

  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  Query unconstrained;
  unconstrained.relations = {"census"};

  std::atomic<bool> stop{false};
  std::atomic<int> seen_old{0}, seen_new{0}, seen_other{0};
  std::vector<std::thread> traffic;
  for (int c = 0; c < 2; ++c) {
    traffic.emplace_back([&] {
      ServeClient client = Connect(server);
      int64_t id = 0;
      while (!stop.load()) {
        auto v = client.Call(EstimateLine(++id, unconstrained, "model"));
        SAM_CHECK_OK(v.status());
        const obs::JsonValue* est = v.ValueOrDie().Find("estimates");
        SAM_CHECK(est != nullptr && est->array_items.size() == 1);
        const double e = est->array_items[0].number_value;
        if (e == 500.0) {
          seen_old.fetch_add(1);
        } else if (e == 1000.0) {
          seen_new.fetch_add(1);
        } else {
          seen_other.fetch_add(1);
        }
      }
    });
  }
  // Let traffic flow on the old model, swap mid-stream, let it continue.
  while (seen_old.load() < 5) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  server.SwapModel(new_model);
  while (seen_new.load() < 5) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  stop.store(true);
  for (auto& t : traffic) t.join();

  EXPECT_GE(seen_old.load(), 5);
  EXPECT_GE(seen_new.load(), 5);
  EXPECT_EQ(seen_other.load(), 0);
  EXPECT_EQ(server.model_swaps(), 1u);

  // After the swap, answers come from the new model only.
  ServeClient client = Connect(server);
  auto v = client.Call(EstimateLine(1, unconstrained, "model"));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(
      v.ValueOrDie().Find("estimates")->array_items[0].number_value, 1000.0);
  server.Stop();
}

TEST(ServeTest, GracefulDrainAnswersEveryInFlightRequest) {
  ServeFixture f = MakeFixture();
  ServeOptions sopts;
  sopts.batch_max = 4;  // Several dispatcher rounds while draining.
  SamServer server(f.db.get(), f.exec.get(), f.model, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kInFlight = 32;
  ServeClient client = Connect(server);
  for (size_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client
                    .Send(EstimateLine(static_cast<int64_t>(i),
                                       f.workload[i % f.workload.size()],
                                       "true"))
                    .ok());
  }

  // Wait (via a second connection — stats answer on the reader thread) until
  // the server has read all 32 requests, then drain.
  ServeClient stats_client = Connect(server);
  size_t stats_calls = 0;
  while (true) {
    ++stats_calls;
    auto v = stats_client.Call("{\"id\": 0, \"type\": \"stats\"}");
    ASSERT_TRUE(v.ok());
    const double requests =
        v.ValueOrDie().Find("stats")->Find("requests")->number_value;
    if (requests >= static_cast<double>(kInFlight + stats_calls)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  // Every pipelined request was answered before the socket closed.
  std::set<int64_t> answered;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok()) << "response " << i << " missing after drain";
    auto v = obs::ParseJson(line.ValueOrDie());
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v.ValueOrDie().Find("ok")->bool_value);
    answered.insert(
        static_cast<int64_t>(v.ValueOrDie().Find("id")->number_value));
  }
  EXPECT_EQ(answered.size(), kInFlight);
}

TEST(ServeTest, GenerateJobRunsToCompletionAndPublishes) {
  ServeFixture f = MakeFixture(/*rows=*/300, /*foj_size=*/300);
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  const auto root = std::filesystem::temp_directory_path() / "sam_serve_gen";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string out = (root / "out").string();
  const std::string work = (root / "work").string();

  auto v = client.Call("{\"id\": 1, \"type\": \"generate\", \"out\": \"" +
                       obs::EscapeJson(out) + "\", \"work\": \"" +
                       obs::EscapeJson(work) + "\"}");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v.ValueOrDie().Find("ok")->bool_value)
      << v.ValueOrDie().Find("error")->string_value;
  const int64_t job =
      static_cast<int64_t>(v.ValueOrDie().Find("job")->number_value);

  // A second generate while one is active is rejected cleanly.
  auto second = client.Call("{\"id\": 2, \"type\": \"generate\", "
                            "\"out\": \"" + obs::EscapeJson(out) + "2\", "
                            "\"work\": \"" + obs::EscapeJson(work) + "2\"}");
  ASSERT_TRUE(second.ok());
  // (It may legitimately succeed if the first already finished.)
  if (!second.ValueOrDie().Find("ok")->bool_value) {
    EXPECT_EQ(second.ValueOrDie().Find("code")->string_value,
              "AlreadyExists");
  }

  std::string state;
  for (int i = 0; i < 3000; ++i) {  // <= 30 s.
    auto s = client.Call("{\"id\": 3, \"type\": \"generate_status\", "
                         "\"job\": " + std::to_string(job) + "}");
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s.ValueOrDie().Find("ok")->bool_value);
    state = s.ValueOrDie().Find("state")->string_value;
    if (state == "done" || state == "failed" || state == "stopped") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "done");

  auto gen = LoadDatabase(out);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("census")->num_rows(), 300u);
  server.Stop();
  std::filesystem::remove_all(root);
}

TEST(ServeTest, FinishedGenerateJobsArePruned) {
  // An always-on daemon must not accumulate finished jobs forever: with
  // finished_jobs_keep=1, starting a second job prunes the first, whose
  // status then reports NotFound.
  ServeFixture f = MakeFixture(/*rows=*/300, /*foj_size=*/300);
  ServeOptions sopts;
  sopts.finished_jobs_keep = 1;
  SamServer server(f.db.get(), f.exec.get(), f.model, sopts);
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  const auto root =
      std::filesystem::temp_directory_path() / "sam_serve_gen_prune";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  auto start_job = [&](const char* tag) {
    const std::string out = (root / (std::string("out_") + tag)).string();
    const std::string work = (root / (std::string("work_") + tag)).string();
    auto v = client.Call("{\"id\": 1, \"type\": \"generate\", \"out\": \"" +
                         obs::EscapeJson(out) + "\", \"work\": \"" +
                         obs::EscapeJson(work) + "\"}");
    SAM_CHECK_OK(v.status());
    SAM_CHECK(v.ValueOrDie().Find("ok")->bool_value);
    return static_cast<int64_t>(v.ValueOrDie().Find("job")->number_value);
  };
  auto wait_done = [&](int64_t job) {
    for (int i = 0; i < 3000; ++i) {  // <= 30 s.
      auto s = client.Call("{\"id\": 2, \"type\": \"generate_status\", "
                           "\"job\": " + std::to_string(job) + "}");
      SAM_CHECK_OK(s.status());
      SAM_CHECK(s.ValueOrDie().Find("ok")->bool_value);
      const std::string state = s.ValueOrDie().Find("state")->string_value;
      if (state == "done") return true;
      SAM_CHECK(state == "queued" || state == "running");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  const int64_t first = start_job("a");
  ASSERT_TRUE(wait_done(first));
  const int64_t second = start_job("b");  // Prunes `first`.

  auto gone = client.Call("{\"id\": 3, \"type\": \"generate_status\", "
                          "\"job\": " + std::to_string(first) + "}");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone.ValueOrDie().Find("ok")->bool_value);
  EXPECT_EQ(gone.ValueOrDie().Find("code")->string_value, "NotFound");

  ASSERT_TRUE(wait_done(second));  // The new job is unaffected.
  server.Stop();
  std::filesystem::remove_all(root);
}

TEST(ServeTest, ModelEstimatesAreDeterministicPerRequest) {
  ServeFixture f = MakeFixture();
  SamServer server(f.db.get(), f.exec.get(), f.model, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeClient client = Connect(server);

  // An estimate is a pure function of (model, seed, paths, query), so
  // repeating a request repeats its answer bit-for-bit, regardless of
  // interleaved traffic through the dispatcher's reused estimator.
  auto ask = [&] {
    auto v = client.Call(EstimateLine(1, f.workload[0], "model"));
    SAM_CHECK_OK(v.status());
    return v.ValueOrDie().Find("estimates")->array_items[0].number_value;
  };
  const double first = ask();
  ASSERT_TRUE(client.Call(EstimateLine(2, f.workload[1], "model")).ok());
  EXPECT_EQ(first, ask());
  server.Stop();
}

TEST(ServeTest, CoalescedModelEstimatesMatchPerRequestAnswers) {
  // Concurrent clients hammering "model" estimates get coalesced by the
  // dispatcher into shared batched forwards. Whatever the batch composition
  // each round happens to be, every answer must equal a fresh K = 1 estimate
  // on a single block at the same seed and path budget, bit for bit
  // (responses serialise doubles with %.17g, so the comparison is exact).
  ServeFixture f = MakeFixture();
  ServeOptions sopts;
  sopts.estimate_paths_default = 64;
  SamServer server(f.db.get(), f.exec.get(), f.model, sopts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<double> expected(f.workload.size());
  for (size_t i = 0; i < f.workload.size(); ++i) {
    BatchedProgressiveEstimator reference(f.model->model(), 4242,
                                          /*rows_per_block=*/64);
    expected[i] = reference.EstimateBatch({f.workload[i]}, 64).MoveValue()[0];
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client = Connect(server);
      int64_t id = 1000 * c;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < f.workload.size(); ++i) {
          auto v = client.Call(EstimateLine(++id, f.workload[i], "model"));
          SAM_CHECK_OK(v.status());
          const obs::JsonValue* est = v.ValueOrDie().Find("estimates");
          SAM_CHECK(est != nullptr && est->array_items.size() == 1);
          if (est->array_items[0].number_value != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The batched path actually ran and is visible in stats.
  ServeClient client = Connect(server);
  auto stats = client.Call("{\"id\": 0, \"type\": \"stats\"}");
  ASSERT_TRUE(stats.ok());
  const obs::JsonValue* batches =
      stats.ValueOrDie().Find("stats")->Find("model_batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GE(batches->number_value, 1.0);
  server.Stop();
}

}  // namespace
}  // namespace sam
