#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sam {

/// \brief Fixed-size worker pool.
///
/// The paper notes that AR sampling is "embarrassingly parallel"; every
/// parallel stage runs on one such pool, the process's `SharedThreadPool()`.
/// Workers take `ParallelFor` loops before `Submit` tasks. Concurrent
/// callers are safe, from any thread, pool workers included.
class ThreadPool {
 public:
  /// How long a worker that ran a `ParallelFor` index spins (yielding) for
  /// the next loop before it sleeps: longer than the serial work between two
  /// loops of a DPS step, well under 1 ms for census_inram. Back-to-back
  /// loops therefore never wait for a sleeping worker to be woken; on a
  /// virtual machine, whose idle vCPUs go back to the hypervisor, that
  /// wake-up is both slow and unsteady. After a loop that came more than
  /// `kSpin` after the one before it, workers sleep at once: loops that far
  /// apart would find every spinning worker asleep anyway.
  static constexpr std::chrono::milliseconds kSpin{10};

  /// Creates `num_threads` >= 1 workers. Stages do not build their own:
  /// they borrow `SharedThreadPool()`.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  /// Runs `fn(i)` for i in [0, n) and waits for all of them. The caller
  /// runs indices too, and at most n - 1 workers join it, so a loop of n is
  /// n threads wide at most; n == 1 runs inline. Workers hold no reference
  /// to the caller's frame until they claim an index, so a loop started
  /// while every worker is busy (from a pool task, say) completes on the
  /// caller alone. After an index throws no new index is claimed, and the
  /// first exception is rethrown once every claimed index is done.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Loop;

  void WorkerLoop();
  /// Spins (yielding) for up to `kSpin` until there is work or a stop.
  void SpinForWork();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  /// Loops with seats no worker has taken yet, oldest first.
  std::deque<std::shared_ptr<Loop>> loops_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// `tasks_.size() + loops_.size()` and `stop_`, readable without `mu_` by
  /// spinning workers; written under it.
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stop_{false};
  /// Workers in `SpinForWork`; a new loop wakes only the seats they leave.
  std::atomic<size_t> spinning_{0};
  /// When a `ParallelFor` last returned (steady-clock ticks), and whether
  /// the loop posted last came within `kSpin` of that: only then do the
  /// workers that ran its indices spin for the next one.
  std::atomic<std::chrono::steady_clock::rep> last_loop_done_{0};
  std::atomic<bool> spin_pays_{false};
};

/// The process's one worker set: hardware-concurrency workers, built on
/// first use and never torn down, so a stage may call it until exit. The
/// workers it starts count in `sam.threadpool.threads_started`.
ThreadPool& SharedThreadPool();

/// Runs `fn(w, i)` for i in [0, n) as a `SharedThreadPool()` loop of
/// `width'` = min(width, n) strides, the caller included: stride w runs
/// i = w, w + width', ... in order, so `w` may index per-stride state.
/// Inline on the caller when width' <= 1.
void StridedFor(size_t n, size_t width,
                const std::function<void(size_t w, size_t i)>& fn);

/// The one place "0 = default" becomes a thread count: `threads`, or the
/// shared set's width when it is 0.
size_t ThreadsOrDefault(size_t threads);

}  // namespace sam
