#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "ar/batched_estimator.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "sam/generation_pipeline.h"

namespace sam::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest request line a connection may send, newline excluded. Past it the
/// client gets an error and is disconnected, so one connection cannot grow
/// the daemon's memory without bound.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// mtime with nanosecond resolution, or -1 when the file is unreadable.
int64_t FileMtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         static_cast<int64_t>(st.st_mtim.tv_nsec);
}

}  // namespace

/// One accepted TCP connection. The reader thread owns reads; responses can
/// come from the reader (fast-path/errors) or the dispatcher, so writes are
/// serialised by `write_mu` to keep response lines intact.
struct SamServer::Conn {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  /// Set by the reader thread as its very last action; once true the thread
  /// is join-able without blocking, so the accept loop can reap it.
  std::atomic<bool> reader_done{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// A parsed request waiting in the dispatcher queue.
struct SamServer::Pending {
  std::shared_ptr<Conn> conn;
  Request request;
  Clock::time_point arrival;
};

/// One asynchronous generation job (at most one runs at a time — the
/// pipeline's work directory and memory budget are per-run resources).
struct SamServer::GenJob {
  int64_t id = -1;
  std::atomic<bool> stop{false};
  std::thread thread;

  std::mutex mu;
  JobStatus status;  // Guarded by mu.
};

SamServer::SamServer(const Database* db, const Executor* exec,
                     std::shared_ptr<const SamModel> model,
                     ServeOptions options)
    : db_(db),
      exec_(exec),
      options_(std::move(options)),
      model_(std::move(model)),
      plan_cache_(options_.plan_cache_capacity) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  requests_counter_ = reg.GetCounter("sam.serve.requests");
  responses_counter_ = reg.GetCounter("sam.serve.responses");
  errors_counter_ = reg.GetCounter("sam.serve.errors");
  queue_depth_gauge_ = reg.GetGauge("sam.serve.queue_depth");
  latency_hist_ = reg.GetHistogram("sam.serve.latency_ms");
  batch_size_hist_ = reg.GetHistogram("sam.serve.batch_size");
  model_batch_size_hist_ = reg.GetHistogram("sam.serve.model_batch_size");
}

SamServer::~SamServer() { Stop(); }

std::shared_ptr<const SamModel> SamServer::ModelSnapshot() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

void SamServer::SwapModel(std::shared_ptr<const SamModel> model) {
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    model_ = std::move(model);
  }
  model_swaps_.fetch_add(1, std::memory_order_relaxed);
}

Status SamServer::Start() {
  if (started_.exchange(true)) {
    return Status::AlreadyExists("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);

  pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  if (!options_.model_path.empty() && options_.watch_interval_ms > 0 &&
      options_.reload_model) {
    watch_thread_ = std::thread([this] { WatchLoop(); });
  }
  return Status::OK();
}

void SamServer::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;  // A previous Stop ran the drain.

  // 1. Stop accepting and reading: after this, the request set is frozen.
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (Reader& r : readers_) {
      if (r.thread.joinable()) r.thread.join();
    }
  }

  // 2. Drain: the dispatcher exits only once the queue is empty.
  queue_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // 3. Stop background work.
  if (watch_thread_.joinable()) watch_thread_.join();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) {
      (void)id;
      job->stop.store(true);
    }
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->thread.joinable()) job->thread.join();
    }
  }

  // 4. Close connections (flushed responses only — writes all happened on
  // the threads joined above).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SamServer::AcceptLoop() {
  while (!stopping_.load()) {
    ReapFinishedReaders();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking: reads and writes both go through poll() with deadlines,
    // so one stuck peer can never park a server thread inside a syscall.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers_.push_back(Reader{conn, std::thread()});
    readers_.back().thread = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void SamServer::ReapFinishedReaders() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (size_t i = 0; i < readers_.size();) {
    if (readers_[i].conn->reader_done.load()) {
      if (readers_[i].thread.joinable()) readers_[i].thread.join();
      if (i + 1 < readers_.size()) readers_[i] = std::move(readers_.back());
      readers_.pop_back();
    } else {
      ++i;
    }
  }
}

void SamServer::ReaderLoop(std::shared_ptr<Conn> conn) {
  std::string buffer;
  // buffer[0, scanned) is known to hold no newline, so a long line is
  // scanned once, not once per chunk.
  size_t scanned = 0;
  char chunk[4096];
  while (!stopping_.load() && conn->open.load()) {
    pollfd pfd{conn->fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0) continue;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;  // The socket is non-blocking; poll raced with the peer.
    }
    if (n <= 0) {
      conn->open.store(false);
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    bool too_long = false;
    for (size_t nl = buffer.find('\n', scanned); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) {
        too_long = true;
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) HandleLine(conn, line);
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (too_long || buffer.size() > kMaxLineBytes) {
      RejectOverlongLine(conn);
      break;
    }
  }
  conn->reader_done.store(true);  // Last action: the thread is now reapable.
}

void SamServer::RejectOverlongLine(const std::shared_ptr<Conn>& conn) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  requests_counter_->Add(1);
  Pending p{conn, Request{}, Clock::now()};
  Respond(&p,
          ErrorResponse(-1, Status::InvalidArgument(
                                "request line exceeds " +
                                std::to_string(kMaxLineBytes) + " bytes")),
          /*is_error=*/true);
  // FIN right after the error line; the descriptor itself is closed when
  // the reaped connection is destroyed.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->open.store(false);
}

void SamServer::WriteLine(Conn* conn, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  WriteFramed(conn, framed);
}

void SamServer::WriteFramed(Conn* conn, const std::string& framed) {
  if (conn == nullptr || !conn->open.load()) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // Deadline-bounded write on a non-blocking socket: a client that stops
  // reading (full TCP send buffer) is dropped after write_timeout_ms instead
  // of parking the dispatcher — and every other client's responses — inside
  // a blocking send().
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.write_timeout_ms);
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(conn->fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      const auto left = options_.write_timeout_ms <= 0
                            ? std::chrono::milliseconds(100)
                            : std::chrono::duration_cast<
                                  std::chrono::milliseconds>(deadline -
                                                             Clock::now());
      if (options_.write_timeout_ms > 0 && left.count() <= 0) {
        conn->open.store(false);  // Slow consumer: drop, don't stall.
        return;
      }
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1,
             static_cast<int>(std::min<int64_t>(left.count(), 100)));
      continue;
    }
    conn->open.store(false);
    return;
  }
}

void SamServer::CountResponse(const Pending& p, bool is_error) {
  responses_total_.fetch_add(1, std::memory_order_relaxed);
  responses_counter_->Add(1);
  if (is_error) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    errors_counter_->Add(1);
  }
  latency_hist_->Observe(MsSince(p.arrival));
}

void SamServer::Respond(Pending* p, const std::string& line, bool is_error) {
  WriteLine(p->conn.get(), line);
  CountResponse(*p, is_error);
}

void SamServer::ResponseSink::Append(const std::shared_ptr<Conn>& conn,
                                     const std::string& line) {
  for (auto& [c, buf] : by_conn) {
    if (c == conn) {
      buf += line;
      buf += '\n';
      return;
    }
  }
  by_conn.emplace_back(conn, line + '\n');
}

void SamServer::RespondBatched(ResponseSink* sink, Pending* p,
                               const std::string& line, bool is_error) {
  sink->Append(p->conn, line);
  CountResponse(*p, is_error);
}

void SamServer::HandleLine(const std::shared_ptr<Conn>& conn,
                           const std::string& line) {
  const Clock::time_point arrival = Clock::now();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  requests_counter_->Add(1);

  int64_t id = -1;
  auto parsed = ParseRequest(line, &id);
  Pending p{conn, Request{}, arrival};
  if (!parsed.ok()) {
    Respond(&p, ErrorResponse(id, parsed.status()), /*is_error=*/true);
    return;
  }
  p.request = parsed.MoveValue();

  // Fast paths answered on the reader thread: they touch no heavy shared
  // state and must stay responsive while the dispatcher is busy.
  switch (p.request.type) {
    case RequestType::kPing:
      Respond(&p, PongResponse(p.request.id), /*is_error=*/false);
      return;
    case RequestType::kStats:
      Respond(&p, StatsResponse(p.request.id, StatsJson()),
              /*is_error=*/false);
      return;
    case RequestType::kGenerate: {
      bool is_error = false;
      const std::string response = HandleGenerate(p.request, &is_error);
      Respond(&p, response, is_error);
      return;
    }
    case RequestType::kGenerateStatus: {
      bool is_error = false;
      const std::string response = HandleGenerateStatus(p.request, &is_error);
      Respond(&p, response, is_error);
      return;
    }
    case RequestType::kEstimate:
    case RequestType::kEstimateBatch:
      break;
  }
  if (p.request.use_model) {
    if (p.request.paths == 0) {
      p.request.paths = static_cast<int64_t>(options_.estimate_paths_default);
    }
    const Status work = CheckModelEstimateWork(p.request);
    if (!work.ok()) {
      Respond(&p, ErrorResponse(p.request.id, work), /*is_error=*/true);
      return;
    }
  }

  // Estimates go through the bounded queue to the coalescing dispatcher.
  // The shed response is written OUTSIDE queue_mu_ — a slow shed client must
  // not stall the dispatcher and every other reader behind the queue lock.
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.queue_capacity) {
      shed = true;
    } else {
      queue_.push_back(std::move(p));
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  if (shed) {
    Respond(&p,
            ErrorResponse(p.request.id,
                          Status::OutOfRange(
                              "server overloaded: request queue is full")),
            /*is_error=*/true);
    return;
  }
  queue_cv_.notify_one();
}

void SamServer::DispatchLoop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !queue_.empty() || stopping_.load();
      });
      if (queue_.empty()) {
        if (stopping_.load()) return;
        continue;
      }
      const size_t take = std::min(queue_.size(),
                                   std::max<size_t>(1, options_.batch_max));
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
    batches_total_.fetch_add(1, std::memory_order_relaxed);
    batch_size_hist_->Observe(static_cast<double>(batch.size()));
    DispatchBatch(&batch);
  }
}

void SamServer::DispatchBatch(std::vector<Pending>* batch) {
  // Dispatcher responses are buffered per connection and flushed with one
  // send() per client at the end of the round; on a busy server that turns
  // ~batch_max response syscalls into ~num_clients.
  ResponseSink sink;

  // Shed requests that exceeded their queueing deadline before doing work
  // for them.
  std::vector<Pending*> live;
  for (Pending& p : *batch) {
    const double waited = MsSince(p.arrival);
    if (options_.request_timeout_ms > 0 &&
        waited > static_cast<double>(options_.request_timeout_ms)) {
      RespondBatched(
          &sink, &p,
          ErrorResponse(
              p.request.id,
              Status::OutOfRange(
                  "deadline exceeded: request waited " +
                  std::to_string(static_cast<int64_t>(waited)) +
                  " ms in queue (timeout " +
                  std::to_string(options_.request_timeout_ms) + " ms)")),
          /*is_error=*/true);
      p.conn = nullptr;
      continue;
    }
    live.push_back(&p);
  }

  // True-cardinality work across every live request is coalesced into one
  // executor call; plans come from the LRU cache.
  struct Slot {
    Pending* p;
    size_t query_index;
  };
  std::vector<Slot> slots;
  std::vector<std::shared_ptr<const engine::CompiledQuery>> plans;

  for (Pending* p : live) {
    if (p->request.use_model) continue;
    bool failed = false;
    const size_t first_slot = slots.size();
    for (size_t qi = 0; qi < p->request.queries.size() && !failed; ++qi) {
      const Query& q = p->request.queries[qi];
      const std::string key = CanonicalQueryKey(q);
      std::shared_ptr<const engine::CompiledQuery> plan = plan_cache_.Get(key);
      if (plan == nullptr) {
        auto compiled =
            engine::CompiledQuery::Compile(*db_, exec_->join_graph(), q);
        if (!compiled.ok()) {
          RespondBatched(&sink, p,
                         ErrorResponse(p->request.id, compiled.status()),
                         /*is_error=*/true);
          p->conn = nullptr;  // Mark answered.
          failed = true;
          break;
        }
        plan = std::make_shared<const engine::CompiledQuery>(
            compiled.MoveValue());
        plan_cache_.Put(key, plan);
      }
      slots.push_back({p, qi});
      plans.push_back(std::move(plan));
    }
    if (failed) {
      slots.resize(first_slot);
      plans.resize(first_slot);
    }
  }

  std::vector<int64_t> cards;
  if (!plans.empty()) {
    std::vector<const engine::CompiledQuery*> raw(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) raw[i] = plans[i].get();
    auto result = exec_->ParallelCardinalityCompiled(raw, pool_.get());
    if (!result.ok()) {
      for (Pending* p : live) {
        if (p->conn == nullptr || p->request.use_model) continue;
        RespondBatched(&sink, p,
                       ErrorResponse(p->request.id, result.status()),
                       /*is_error=*/true);
        p->conn = nullptr;
      }
    } else {
      cards = result.MoveValue();
    }
  }

  // Scatter coalesced cardinalities back to their requests.
  if (!cards.empty()) {
    size_t cursor = 0;
    for (Pending* p : live) {
      if (p->conn == nullptr || p->request.use_model) continue;
      std::vector<int64_t> answer(p->request.queries.size());
      for (size_t qi = 0; qi < answer.size(); ++qi) {
        answer[qi] = cards[cursor + qi];
      }
      cursor += answer.size();
      RespondBatched(&sink, p, CardsResponse(p->request.id, answer),
                     /*is_error=*/false);
      p->conn = nullptr;
    }
  }

  // Model estimates are coalesced across clients as well — one batched
  // progressive-sampling call per round on the persistent pool.
  DispatchModelEstimates(&sink, live);

  // One write per connection for everything this round produced.
  for (auto& [conn, framed] : sink.by_conn) {
    WriteFramed(conn.get(), framed);
  }
}

void SamServer::DispatchModelEstimates(ResponseSink* sink,
                                       const std::vector<Pending*>& live) {
  std::vector<Pending*> wants;
  for (Pending* p : live) {
    if (p->conn != nullptr && p->request.use_model) wants.push_back(p);
  }
  if (wants.empty()) return;

  // One model snapshot for the whole round. The cached batched estimator is
  // rebuilt only when a hot-swap changed the snapshot; otherwise its block
  // scratch carries over, so steady-state estimation allocates nothing per
  // request. (The dispatcher is single-threaded — no lock needed.) Answers
  // are bit-identical to a fresh K = 1 estimate of each query with the same
  // paths: the counter-RNG streams and the kernel layer's batch-size
  // invariance make an estimate independent of what other requests were
  // coalesced with it.
  const std::shared_ptr<const SamModel> model = ModelSnapshot();
  if (model_estimator_ == nullptr || model_estimator_for_ != model) {
    model_estimator_ =
        std::make_unique<BatchedProgressiveEstimator>(model->model());
    model_estimator_for_ = model;
  }

  // A round may coalesce up to batch_max requests at the per-request cap;
  // running them in calls of at most kMaxPathsPerRequest paths keeps the
  // per-path selectivity array (and the compiled queries) of one call
  // bounded, whatever the round holds. Grouping never changes an answer.
  std::vector<Pending*> group;
  int64_t group_paths = 0;
  for (Pending* p : wants) {
    const int64_t paths =
        static_cast<int64_t>(p->request.queries.size()) * p->request.paths;
    if (!group.empty() && group_paths + paths > kMaxPathsPerRequest) {
      EstimateModelGroup(sink, *model, group);
      group.clear();
      group_paths = 0;
    }
    group.push_back(p);
    group_paths += paths;
  }
  if (!group.empty()) EstimateModelGroup(sink, *model, group);
}

void SamServer::EstimateModelGroup(ResponseSink* sink, const SamModel& model,
                                   const std::vector<Pending*>& group) {
  // Compile per request so a bad query fails only its own request, then
  // coalesce the survivors into ONE batched estimation call.
  struct Slot {
    Pending* p;
    size_t first;  ///< Index of the request's first query in `items`.
    size_t count;
  };
  std::vector<Slot> slots;
  std::deque<CompiledQuery> compiled;  // Stable addresses as it grows.
  std::vector<BatchedEstimateItem> items;
  for (Pending* p : group) {
    const size_t paths = static_cast<size_t>(p->request.paths);
    const size_t first = items.size();
    bool failed = false;
    for (const Query& q : p->request.queries) {
      auto cq = model.model()->schema().Compile(q);
      if (!cq.ok()) {
        RespondBatched(sink, p, ErrorResponse(p->request.id, cq.status()),
                       /*is_error=*/true);
        p->conn = nullptr;
        failed = true;
        break;
      }
      compiled.push_back(cq.MoveValue());
      items.push_back({&compiled.back(), paths});
    }
    if (failed) {
      items.resize(first);
      continue;
    }
    slots.push_back({p, first, p->request.queries.size()});
  }
  if (slots.empty()) return;

  std::vector<double> estimates;
  if (!items.empty()) {
    model_batches_total_.fetch_add(1, std::memory_order_relaxed);
    model_batch_size_hist_->Observe(static_cast<double>(items.size()));
    auto result = model_estimator_->EstimateCompiledBatch(items, pool_.get());
    if (!result.ok()) {
      for (const Slot& slot : slots) {
        RespondBatched(sink, slot.p,
                       ErrorResponse(slot.p->request.id, result.status()),
                       /*is_error=*/true);
        slot.p->conn = nullptr;
      }
      return;
    }
    estimates = result.MoveValue();
  }

  // Scatter contiguous per-request slices back (a zero-query request gets an
  // empty estimates array, matching the pre-batching behaviour).
  for (const Slot& slot : slots) {
    std::vector<double> answer(
        estimates.begin() + static_cast<ptrdiff_t>(slot.first),
        estimates.begin() + static_cast<ptrdiff_t>(slot.first + slot.count));
    RespondBatched(sink, slot.p,
                   EstimatesResponse(slot.p->request.id, answer),
                   /*is_error=*/false);
    slot.p->conn = nullptr;
  }
}

std::string SamServer::HandleGenerate(const Request& req, bool* is_error) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  for (const auto& [id, job] : jobs_) {
    (void)id;
    std::lock_guard<std::mutex> jlock(job->mu);
    if (job->status.state == "queued" || job->status.state == "running") {
      *is_error = true;
      return ErrorResponse(
          req.id, Status::AlreadyExists("generation job " +
                                        std::to_string(job->status.job) +
                                        " is already running"));
    }
  }
  // Every retained job is finished (a live one returned above); cap how many
  // stay pollable so an always-on daemon doesn't accumulate them forever.
  while (jobs_.size() >= std::max<size_t>(1, options_.finished_jobs_keep)) {
    auto oldest = jobs_.begin();
    if (oldest->second->thread.joinable()) oldest->second->thread.join();
    jobs_.erase(oldest);
  }
  auto job = std::make_shared<GenJob>();
  job->id = next_job_id_++;
  job->status.job = job->id;
  job->status.state = "queued";
  job->status.out_dir = req.gen_out;
  jobs_[job->id] = job;

  const std::shared_ptr<const SamModel> model = ModelSnapshot();
  GenerationPipelineOptions opts;
  opts.out_dir = req.gen_out;
  opts.work_dir = req.gen_work;
  opts.resume = req.gen_resume;
  opts.stop_flag = &job->stop;
  job->thread = std::thread([job, model, opts] {
    {
      std::lock_guard<std::mutex> jlock(job->mu);
      job->status.state = "running";
    }
    GenerationPipeline pipeline(model.get(), opts);
    auto run = pipeline.Run();
    std::lock_guard<std::mutex> jlock(job->mu);
    if (!run.ok()) {
      job->status.state = "failed";
      job->status.error = run.status().ToString();
      return;
    }
    const GenerationRunSummary& s = run.ValueOrDie();
    job->status.rows_written = s.rows_written;
    job->status.steps_executed = s.steps_executed;
    job->status.steps_total = s.steps_total;
    job->status.state = s.completed ? "done" : "stopped";
  });
  obs::MetricsRegistry::Global().GetCounter("sam.serve.generate_jobs")->Add(1);
  return GenerateStartedResponse(req.id, job->id);
}

std::string SamServer::HandleGenerateStatus(const Request& req,
                                            bool* is_error) {
  std::shared_ptr<GenJob> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(req.job);
    if (it != jobs_.end()) job = it->second;
  }
  if (job == nullptr) {
    *is_error = true;
    return ErrorResponse(req.id, Status::NotFound("no generation job " +
                                                  std::to_string(req.job)));
  }
  std::lock_guard<std::mutex> jlock(job->mu);
  return GenerateStatusResponse(req.id, job->status);
}

void SamServer::WatchLoop() {
  int64_t last_mtime = FileMtimeNs(options_.model_path);
  while (!stopping_.load()) {
    // Sleep in 20ms slices so Stop() is never blocked on a long interval.
    for (int64_t slept = 0;
         slept < options_.watch_interval_ms && !stopping_.load();
         slept += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (stopping_.load()) return;
    const int64_t mtime = FileMtimeNs(options_.model_path);
    if (mtime < 0 || mtime == last_mtime) continue;
    // Stage-then-apply: load the replacement completely off to the side;
    // the swap happens only when the reload succeeded, so a torn or corrupt
    // artifact never reaches a request.
    auto reloaded = options_.reload_model();
    if (!reloaded.ok()) {
      obs::MetricsRegistry::Global()
          .GetCounter("sam.serve.model_reload_errors")
          ->Add(1);
      // Keep last_mtime unchanged so the next tick retries (the writer may
      // still have been mid-rename).
      continue;
    }
    last_mtime = mtime;
    SwapModel(reloaded.MoveValue());
    obs::MetricsRegistry::Global().GetCounter("sam.serve.model_swaps")->Add(1);
  }
}

std::string SamServer::StatsJson() const {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  size_t jobs_running = 0;
  size_t jobs_total = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_total = jobs_.size();
    for (const auto& [id, job] : jobs_) {
      (void)id;
      std::lock_guard<std::mutex> jlock(job->mu);
      if (job->status.state == "queued" || job->status.state == "running") {
        ++jobs_running;
      }
    }
  }
  const obs::Histogram::Snapshot lat = obs::MetricsRegistry::Global()
                                           .GetHistogram("sam.serve.latency_ms")
                                           ->Snap();
  char lat_buf[160];
  std::snprintf(lat_buf, sizeof(lat_buf),
                "{\"count\": %llu, \"p50\": %.6g, \"p99\": %.6g}",
                static_cast<unsigned long long>(lat.count),
                lat.Percentile(0.5), lat.Percentile(0.99));
  return "{\"queue_depth\": " + std::to_string(depth) +
         ", \"requests\": " + std::to_string(requests_total_.load()) +
         ", \"responses\": " + std::to_string(responses_total_.load()) +
         ", \"errors\": " + std::to_string(errors_total_.load()) +
         ", \"batches\": " + std::to_string(batches_total_.load()) +
         ", \"model_batches\": " + std::to_string(model_batches_total_.load()) +
         ", \"plan_cache\": {\"hits\": " + std::to_string(plan_cache_.hits()) +
         ", \"misses\": " + std::to_string(plan_cache_.misses()) +
         ", \"size\": " + std::to_string(plan_cache_.size()) + "}" +
         ", \"model_swaps\": " + std::to_string(model_swaps_.load()) +
         ", \"jobs\": {\"running\": " + std::to_string(jobs_running) +
         ", \"total\": " + std::to_string(jobs_total) + "}" +
         ", \"latency_ms\": " + lat_buf + "}";
}

}  // namespace sam::serve
