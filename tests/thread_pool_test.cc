// ThreadPool correctness: every index of every loop runs exactly once, the
// caller works too, loops separated by more than the spin window (every
// worker asleep) still complete, a loop started while every worker is busy
// completes on its caller, concurrent callers share one pool, workers stop
// spinning when loops come further apart than the spin window, and a throwing
// index must not unwind past the call while sibling indices still reference
// the call's stack frame (the function object and what it captures).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace sam {
namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

// The spin team of a loop is its caller plus the workers still spinning
// (`ThreadPool::kSpin`) from the loop before: these run loops back to back,
// so every loop after the first is joined by spinning workers.

TEST(SpinTeamTest, RunVisitsEveryIndexOnce) {
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (size_t n : {1, 3, 4, 7, 1000, 10000}) {
      std::vector<std::atomic<int>> visits(n);
      pool.ParallelFor(n, [&](size_t i) { visits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "threads " << threads << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(SpinTeamTest, ZeroIsANoop) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> visits(64);
  pool.ParallelFor(64, [&](size_t i) { visits[i].fetch_add(1); });
  // Workers are spinning now; an empty loop must give them nothing to run.
  pool.ParallelFor(0, [](size_t) { FAIL() << "fn called for n == 0"; });
  pool.ParallelFor(64, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 2) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForOfOneRunsInlineOnTheCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(1, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
}

TEST(ThreadPoolTest, ParallelForJoinsAtMostNMinusOneWorkers) {
  // A wide loop first leaves every worker spinning for the next one; a loop
  // of n must still take at most n - 1 of them, the caller being the n-th.
  ThreadPool pool(6);
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t n : {2, 3}) {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(64, [](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      });
      std::mutex mu;
      std::set<std::thread::id> workers;
      pool.ParallelFor(n, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (std::this_thread::get_id() == caller) return;
        std::lock_guard<std::mutex> lock(mu);
        workers.insert(std::this_thread::get_id());
      });
      EXPECT_LE(workers.size(), n - 1) << "n " << n << ", round " << round;
    }
  }
}

TEST(ThreadPoolTest, BackToBackLoopsSeeEachOthersWrites) {
  // Each loop reads what the previous loop wrote: ParallelFor must not
  // return before every index is done, and workers must see the caller's
  // writes made between loops.
  ThreadPool pool(4);
  std::vector<int> data(64, 0);
  for (int round = 1; round <= 500; ++round) {
    pool.ParallelFor(data.size(), [&](size_t i) {
      EXPECT_EQ(data[i], round - 1);
      data[i] = round;
    });
  }
  for (int v : data) EXPECT_EQ(v, 500);
}

TEST(ThreadPoolTest, LoopsAfterTheSpinWindowWakeSleepingWorkers) {
  // Between these loops every worker outlasts kSpin and sleeps; the loops
  // must still complete, and the workers must take part again.
  ThreadPool pool(2);
  const auto pause = ThreadPool::kSpin * 3;
  std::atomic<bool> worker_ran{false};
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(pause);
    std::atomic<int> count{0};
    pool.ParallelFor(3, [&](size_t) {
      if (std::this_thread::get_id() != caller) worker_ran.store(true);
      count.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    EXPECT_EQ(count.load(), 3);
  }
  EXPECT_TRUE(worker_ran.load());
}

TEST(ThreadPoolTest, WorkersStopSpinningWhenLoopsComeFarApart) {
  // After a loop that came more than kSpin after the one before it, the
  // workers sleep right after their index, so loops that far apart burn no
  // core between them. Spinning out every window would cost 3 workers x kSpin
  // of CPU per loop.
  ThreadPool pool(3);
  auto loop = [&] {
    pool.ParallelFor(4, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    std::this_thread::sleep_for(ThreadPool::kSpin * 3);
  };
  const double before = ProcessCpuSeconds();
  for (int round = 0; round < 10; ++round) loop();
  EXPECT_LT(ProcessCpuSeconds() - before, 0.05);
}

TEST(ThreadPoolTest, ParallelForFromAPoolTaskCompletesWhileEveryWorkerIsBusy) {
  // Both workers are taken: one blocks until the loop is done, the other
  // runs the loop. Nothing is left to join it, so the loop must complete on
  // its caller alone.
  ThreadPool pool(2);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.Submit([&] {
    blocker_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<std::atomic<int>> visits(1000);
  auto looper = pool.Submit([&] {
    while (!blocker_started.load()) std::this_thread::yield();
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(visits.size(), [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      visits[i].fetch_add(1);
    });
    release.store(true);
  });
  looper.get();
  blocker.get();
  for (size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersShareThePoolWithSubmitTasks) {
  // Two callers run loops at once while tasks are queued and running, as the
  // server's dispatcher does next to a generate job's lookahead.
  ThreadPool pool(3);
  std::atomic<int> tasks_run{0};
  std::vector<std::future<void>> futs;
  for (int t = 0; t < 64; ++t) {
    futs.push_back(pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      tasks_run.fetch_add(1);
    }));
  }
  auto caller = [&](size_t seed, std::vector<std::atomic<int>>* visits) {
    size_t offset = 0;
    for (size_t round = 0; round < 200; ++round) {
      const size_t n = 1 + (round * 7 + seed) % 64;
      pool.ParallelFor(n,
                       [&](size_t i) { (*visits)[offset + i].fetch_add(1); });
      offset += n;
    }
    return offset;
  };
  std::vector<std::atomic<int>> a(200 * 64), b(200 * 64);
  size_t a_n = 0, b_n = 0;
  std::thread ta([&] { a_n = caller(1, &a); });
  std::thread tb([&] { b_n = caller(5, &b); });
  ta.join();
  tb.join();
  for (auto& f : futs) f.get();
  EXPECT_EQ(tasks_run.load(), 64);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].load(), i < a_n ? 1 : 0) << "caller a, index " << i;
    ASSERT_EQ(b[i].load(), i < b_n ? 1 : 0) << "caller b, index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "fn called for n == 0"; });
}

TEST(ThreadPoolTest, ParallelForPropagatesTheException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForJoinsAllShardsBeforeRethrowing) {
  // Regression: the first faulting future used to rethrow while other shards
  // were still executing, so they touched the unwound frame's `next`/`fn`
  // (use-after-scope). All shards must be done the moment the call exits.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> running{0};
    std::atomic<int> peak_after_throw{0};
    std::atomic<bool> thrown{false};
    try {
      pool.ParallelFor(256, [&](size_t i) {
        running.fetch_add(1);
        if (i == 0) {
          thrown.store(true);
          running.fetch_sub(1);
          throw std::runtime_error("boom");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (thrown.load()) {
          peak_after_throw.store(
              std::max(peak_after_throw.load(), running.load()));
        }
        running.fetch_sub(1);
      });
      FAIL() << "expected the exception to propagate";
    } catch (const std::runtime_error&) {
      // The contract under test: by the time ParallelFor exits, every shard
      // has finished, so nothing still references the lambda's captures.
      EXPECT_EQ(running.load(), 0) << "shards still running after unwind";
    }
  }
  // The pool stays usable after a failed loop.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ParallelForStopsSchedulingAfterFailure) {
  // Indices claimed before the failure still run, but no index is claimed
  // after it: the pool must not drain all of them once one failed.
  ThreadPool pool(2);
  std::atomic<size_t> executed{0};
  try {
    pool.ParallelFor(1u << 20, [&](size_t) {
      executed.fetch_add(1);
      throw std::runtime_error("boom");
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), 1u << 20) << "pool drained every index anyway";
}

TEST(ThreadPoolTest, SubmitRunsTasksAndReturnsUsableFutures) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 10; ++i) {
    futs.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 55);
}

}  // namespace
}  // namespace sam
