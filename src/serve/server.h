#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "sam/sam_model.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"

namespace sam {
class BatchedProgressiveEstimator;
class ThreadPool;
namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs
}  // namespace sam

namespace sam::serve {

/// \brief Configuration of the serve daemon.
struct ServeOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
  int port = 0;
  /// Bounded request queue between readers and the dispatcher. When full,
  /// new requests are shed immediately with an "overloaded" error instead of
  /// stalling the connection.
  size_t queue_capacity = 256;
  /// Max requests the dispatcher coalesces into one executor call. 1 turns
  /// cross-client batching off; the persistent pool and plan cache still
  /// apply, so this is not `bench_serve`'s baseline (that is one in-process
  /// `Executor::ParallelCardinality` call per request).
  size_t batch_max = 64;
  /// Executor worker threads for coalesced cardinality batches (0 =
  /// hardware concurrency).
  size_t worker_threads = 0;
  /// Compiled-plan LRU capacity (0 disables plan caching).
  size_t plan_cache_capacity = 256;
  /// Max time a request may wait in the queue before it is answered with a
  /// timeout error (0 = no timeout).
  int64_t request_timeout_ms = 30000;
  /// Max time a response write may block on one connection before the
  /// connection is dropped (0 = block forever). A client that stops reading
  /// must not be able to stall the dispatcher — and every other client —
  /// behind a full TCP send buffer.
  int64_t write_timeout_ms = 5000;
  /// Finished generation jobs retained for `generate_status` polling; older
  /// completed jobs are pruned when a new job starts.
  size_t finished_jobs_keep = 64;
  /// Progressive-sampling paths for model estimates when the request does
  /// not specify `paths` (matches the CLI estimate default). Bounded by
  /// `kMaxPathsPerQuery` like an explicit `paths`.
  size_t estimate_paths_default = 400;

  /// Model artifact to watch for hot-swap. When set together with
  /// `watch_interval_ms` and `reload_model`, a watcher thread polls the
  /// file's mtime and swaps in a freshly loaded model without dropping
  /// requests: the reload is staged off to the side and applied atomically
  /// only on success, and in-flight requests keep the snapshot they started
  /// with.
  std::string model_path;
  int64_t watch_interval_ms = 0;
  std::function<Result<std::shared_ptr<const SamModel>>()> reload_model;
};

/// \brief Always-on estimation/generation daemon.
///
/// Owns the listening socket and four kinds of threads: an accept loop, one
/// reader per connection, a dispatcher that drains the bounded request queue
/// and coalesces cardinality work across clients into single
/// `Executor::ParallelCardinalityCompiled` calls, and (optionally) a
/// model-file watcher for zero-downtime hot swap. `Stop()` drains
/// gracefully: accepted requests are answered before the socket closes.
///
/// The database, executor and model are loaded once at construction and
/// shared by every request; per-request state is confined to scratch
/// buffers, so concurrent clients see answers bit-identical to the batch
/// CLI paths.
class SamServer {
 public:
  /// `db` and `exec` must outlive the server; `model` is shared (hot swaps
  /// replace the pointer, never mutate the pointee).
  SamServer(const Database* db, const Executor* exec,
            std::shared_ptr<const SamModel> model, ServeOptions options);
  ~SamServer();

  SamServer(const SamServer&) = delete;
  SamServer& operator=(const SamServer&) = delete;

  /// Binds, listens and launches the service threads.
  Status Start();

  /// Graceful drain: stops accepting, answers every already-read request,
  /// stops generation jobs at their next durable step, then joins all
  /// threads and closes every connection. Idempotent.
  void Stop();

  /// Bound port (valid after Start; resolves ephemeral binds).
  int port() const { return port_; }

  /// Atomically replaces the served model. In-flight requests finish on the
  /// snapshot they took; later requests see the new model.
  void SwapModel(std::shared_ptr<const SamModel> model);

  /// Serve-side counters/gauges as one JSON object (also the payload of the
  /// "stats" request).
  std::string StatsJson() const;

  /// Lifetime count of completed model hot-swaps (tests).
  uint64_t model_swaps() const {
    return model_swaps_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct Pending;
  struct GenJob;

  /// A connection and the thread reading it; reaped by the accept loop once
  /// the reader has finished.
  struct Reader {
    std::shared_ptr<Conn> conn;
    std::thread thread;
  };

  /// Dispatcher responses for one batch, coalesced per connection so each
  /// client gets one send() per dispatch round instead of one per request.
  struct ResponseSink {
    std::vector<std::pair<std::shared_ptr<Conn>, std::string>> by_conn;
    void Append(const std::shared_ptr<Conn>& conn, const std::string& line);
  };

  std::shared_ptr<const SamModel> ModelSnapshot() const;
  void WriteLine(Conn* conn, const std::string& line);
  /// Deadline-bounded write of already-framed (newline-terminated) bytes.
  void WriteFramed(Conn* conn, const std::string& framed);
  void Respond(Pending* p, const std::string& line, bool is_error);
  /// Batched Respond: records metrics now, buffers the line in `sink` (one
  /// write per connection when the dispatch round flushes).
  void RespondBatched(ResponseSink* sink, Pending* p, const std::string& line,
                      bool is_error);
  /// Response bookkeeping shared by the immediate and batched paths.
  void CountResponse(const Pending& p, bool is_error);

  void AcceptLoop();
  /// Joins and discards readers whose connection has finished (accept-loop
  /// janitor; keeps a long-lived daemon from accumulating dead threads).
  void ReapFinishedReaders();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  /// Answers a request line longer than the server's line cap with an error
  /// and shuts the connection down.
  void RejectOverlongLine(const std::shared_ptr<Conn>& conn);
  void DispatchLoop();
  void WatchLoop();

  /// Handles one raw request line from `conn` (parse, fast-path or enqueue).
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  void DispatchBatch(std::vector<Pending>* batch);
  /// Coalesces every still-unanswered model-estimate request in `live` into
  /// `BatchedProgressiveEstimator` calls on the persistent pool, each over
  /// consecutive requests totalling at most `kMaxPathsPerRequest` paths.
  void DispatchModelEstimates(ResponseSink* sink,
                              const std::vector<Pending*>& live);
  /// Answers `group` with one batched estimation call against `model`.
  void EstimateModelGroup(ResponseSink* sink, const SamModel& model,
                          const std::vector<Pending*>& group);

  std::string HandleGenerate(const Request& req, bool* is_error);
  std::string HandleGenerateStatus(const Request& req, bool* is_error);

  const Database* db_;
  const Executor* exec_;
  ServeOptions options_;

  mutable std::mutex model_mu_;
  std::shared_ptr<const SamModel> model_;

  PlanCache plan_cache_;
  std::unique_ptr<ThreadPool> pool_;

  /// Cached cross-query batched estimator, dispatcher-thread only. Rebuilt
  /// when a hot-swap changes the model snapshot; otherwise its block scratch
  /// (one SamplerState per pool worker) persists across dispatch rounds, so
  /// serving model estimates allocates no sampler state per request.
  /// `model_estimator_for_` keeps the snapshot the estimator points into
  /// alive.
  std::unique_ptr<BatchedProgressiveEstimator> model_estimator_;
  std::shared_ptr<const SamModel> model_estimator_for_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread watch_thread_;
  std::mutex conns_mu_;
  std::vector<Reader> readers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  mutable std::mutex jobs_mu_;
  int64_t next_job_id_ = 1;
  std::map<int64_t, std::shared_ptr<GenJob>> jobs_;

  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> responses_total_{0};
  std::atomic<uint64_t> errors_total_{0};
  std::atomic<uint64_t> batches_total_{0};
  std::atomic<uint64_t> model_batches_total_{0};
  std::atomic<uint64_t> model_swaps_{0};

  // Registry handles resolved once (registry pointers are process-lifetime
  // stable); the per-request paths must not pay a name lookup per event.
  obs::Counter* requests_counter_;
  obs::Counter* responses_counter_;
  obs::Counter* errors_counter_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* latency_hist_;
  obs::Histogram* batch_size_hist_;
  obs::Histogram* model_batch_size_hist_;
};

}  // namespace sam::serve
