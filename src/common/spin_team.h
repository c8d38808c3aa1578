#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sam {

/// \brief A team of threads for short, back-to-back parallel loops.
///
/// `Run(n, fn)` runs `fn(i)` for i in [0, n) on the calling thread and
/// `threads - 1` helpers, and returns when every index is done. Unlike
/// `ThreadPool::ParallelFor`, the caller works too, and the waiting sides
/// (helpers between loops, the caller for the last index) spin, yielding,
/// for up to `kSpin` before they sleep. Loops that follow each other within
/// the spin window therefore never wait for a sleeping thread to be woken:
/// on a virtual machine, whose idle vCPUs go back to the hypervisor, that
/// wake-up is both slow and unsteady. Helpers live as long as the team.
class SpinTeam {
 public:
  /// Longer than the serial work between two loops of a DPS step: the
  /// gradient clip norm and the step's bookkeeping, well under 1 ms for
  /// census_inram (the gradient reduction and the Adam update run on the
  /// team).
  static constexpr std::chrono::milliseconds kSpin{10};

  /// `threads` >= 1 counts the caller; 1 runs every loop inline.
  explicit SpinTeam(size_t threads);
  ~SpinTeam();

  SpinTeam(const SpinTeam&) = delete;
  SpinTeam& operator=(const SpinTeam&) = delete;

  /// Runs `fn(i)` for i in [0, n), n < 65536, and waits for all of them. An
  /// exception thrown by `fn` is rethrown here once every index is done
  /// (the first one, if several throw). Not reentrant: one caller at a time.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  size_t threads() const { return helpers_.size() + 1; }

 private:
  /// Claims and runs one index of the current loop; false if none is left.
  bool RunOne();
  bool HasWork() const;
  void HelperLoop();
  /// Spins (yielding) until `ready()`, then sleeps on `cv_` until it holds.
  template <typename Ready>
  void Await(Ready ready);
  void WakeSleepers();

  std::vector<std::thread> helpers_;
  /// [loop generation : 32 | n : 16 | next unclaimed index : 16]. A claim is
  /// a CAS on the whole word, so it can only take an index of the loop it
  /// read; `fn_` is then valid until the claim's index is done.
  std::atomic<uint64_t> ticket_{0};
  std::atomic<size_t> done_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  const std::function<void(size_t)>* fn_ = nullptr;
  uint64_t generation_ = 0;  ///< Caller-side; the high half of `ticket_`.
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  ///< Guarded by `mu_`.
};

}  // namespace sam
