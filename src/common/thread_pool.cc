#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace sam {

/// One `ParallelFor` call, shared between the caller and the workers that
/// join it. It lives on the heap, owned by every thread that holds it, so a
/// worker that takes a seat after the caller returned touches nothing dead.
struct ThreadPool::Loop {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  size_t seats = 0;  ///< Workers that may still join; guarded by pool `mu_`.
  std::atomic<size_t> next{0};
  /// Workers that took a seat and have not left; only they (and the caller)
  /// may dereference `fn`. Falls only under `mu`, so a caller waiting on
  /// `cv` for 0 misses no wake-up.
  std::atomic<size_t> active{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  ///< First failure; guarded by `mu`.

  /// Claims and runs indices until none is left; true if it ran one.
  bool Work() {
    bool ran = false;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      ran = true;
      try {
        (*fn)(i);
      } catch (...) {
        next.store(n);  // Every later claim fails.
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    return ran;
  }

  /// A worker leaves: the last one out wakes a sleeping caller.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu);
    if (active.fetch_sub(1) == 1) cv.notify_all();
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  SAM_CHECK(num_threads >= 1);
  static obs::Counter* started = obs::MetricsRegistry::Global().GetCounter(
      "sam.threadpool.threads_started");
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    started->Add(1);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(packaged));
    depth = tasks_.size();
    pending_.fetch_add(1);
  }
  cv_.notify_one();
  if (obs::MetricsEnabled()) {
    static obs::Counter* submitted =
        obs::MetricsRegistry::Global().GetCounter("sam.threadpool.tasks");
    static obs::Gauge* queue_depth =
        obs::MetricsRegistry::Global().GetGauge("sam.threadpool.queue_depth");
    submitted->Add(1);
    queue_depth->Set(static_cast<double>(depth));
  }
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->n = n;
  using Clock = std::chrono::steady_clock;
  spin_pays_.store(Clock::now().time_since_epoch() -
                       Clock::duration(last_loop_done_.load()) <=
                   kSpin);
  size_t wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop->seats = std::min(n - 1, workers_.size());
    loops_.push_back(loop);
    pending_.fetch_add(1);
    // A worker leaving `SpinForWork` decrements `spinning_` before it checks
    // `loops_` under `mu_`, so reading it here loses no wake-up.
    const size_t spinning = spinning_.load();
    wake = loop->seats > spinning ? loop->seats - spinning : 0;
  }
  for (size_t i = 0; i < wake; ++i) cv_.notify_one();

  loop->Work();
  // Every index is claimed: withdraw the seats nobody took, after which
  // `active` can only fall.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(loops_.begin(), loops_.end(), loop);
    if (it != loops_.end()) {
      loops_.erase(it);
      pending_.fetch_sub(1);
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 0; loop->active.load() != 0; ++i) {
    if (i % 64 == 63 && std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(loop->mu);
      loop->cv.wait(lock, [&] { return loop->active.load() == 0; });
      break;
    }
    std::this_thread::yield();
  }
  last_loop_done_.store(Clock::now().time_since_epoch().count());
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    error = loop->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::SpinForWork() {
  spinning_.fetch_add(1);
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 0; pending_.load() == 0 && !stop_.load(); ++i) {
    if (i % 64 == 63 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  spinning_.fetch_sub(1);
}

void ThreadPool::WorkerLoop() {
  // A worker that ran a loop index spins for the next loop before it sleeps,
  // unless that loop came more than `kSpin` after the one before it: loops
  // that far apart (a lightly loaded server's batches, say) would only burn
  // a core. One that ran a task (or joined a loop too late) goes straight to
  // sleep.
  bool spin = false;
  while (true) {
    if (spin && spin_pays_.load()) SpinForWork();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stop_.load() || !loops_.empty() || !tasks_.empty();
    });
    if (!loops_.empty()) {
      std::shared_ptr<Loop> loop = loops_.front();
      if (--loop->seats == 0) {
        loops_.pop_front();
        pending_.fetch_sub(1);
      }
      loop->active.fetch_add(1);
      lock.unlock();
      spin = loop->Work();
      loop->Leave();
      continue;
    }
    if (tasks_.empty()) return;  // Stopped, with nothing left to run.
    std::packaged_task<void()> task = std::move(tasks_.front());
    tasks_.pop();
    pending_.fetch_sub(1);
    lock.unlock();
    spin = false;
    if (obs::MetricsEnabled()) {
      static obs::Histogram* task_seconds =
          obs::MetricsRegistry::Global().GetHistogram(
              "sam.threadpool.task_seconds");
      const auto t0 = std::chrono::steady_clock::now();
      task();
      task_seconds->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      task();
    }
  }
}

ThreadPool& SharedThreadPool() {
  // Leaked on purpose: a static destructor would join the workers while a
  // later-destroyed object might still call in.
  static ThreadPool* const pool = new ThreadPool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

void StridedFor(size_t n, size_t width,
                const std::function<void(size_t, size_t)>& fn) {
  width = std::min(width, n);
  auto stride = [&](size_t w) {
    for (size_t i = w; i < n; i += width) fn(w, i);
  };
  if (width <= 1) {
    stride(0);
  } else {
    SharedThreadPool().ParallelFor(width, stride);
  }
}

size_t ThreadsOrDefault(size_t threads) {
  return threads > 0 ? threads : SharedThreadPool().num_threads();
}

}  // namespace sam
