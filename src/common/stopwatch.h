#pragma once

#include <chrono>

namespace sam {

/// \brief Wall-clock stopwatch used by the experiment harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the watch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sam
