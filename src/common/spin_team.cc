#include "common/spin_team.h"

#include <utility>

#include "common/logging.h"

namespace sam {

namespace {

constexpr uint64_t kIndexMask = 0xffff;

size_t LoopSize(uint64_t ticket) { return (ticket >> 16) & kIndexMask; }
size_t NextIndex(uint64_t ticket) { return ticket & kIndexMask; }

}  // namespace

SpinTeam::SpinTeam(size_t threads) {
  SAM_CHECK(threads >= 1);
  helpers_.reserve(threads - 1);
  for (size_t i = 1; i < threads; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

SpinTeam::~SpinTeam() {
  stop_.store(true);
  WakeSleepers();
  for (std::thread& h : helpers_) h.join();
}

void SpinTeam::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  SAM_CHECK(n <= kIndexMask);
  fn_ = &fn;
  done_.store(0);
  ++generation_;
  ticket_.store((generation_ << 32) | (static_cast<uint64_t>(n) << 16));
  WakeSleepers();
  while (RunOne()) {
  }
  Await([&] { return done_.load() == n; });
  fn_ = nullptr;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

bool SpinTeam::RunOne() {
  uint64_t t = ticket_.load();
  while (NextIndex(t) < LoopSize(t)) {
    if (!ticket_.compare_exchange_weak(t, t + 1)) continue;
    // The claimed index keeps the caller in `Run`, so `fn_` stays valid.
    const size_t n = LoopSize(t);
    try {
      (*fn_)(NextIndex(t));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    if (done_.fetch_add(1) + 1 == n) WakeSleepers();
    return true;
  }
  return false;
}

bool SpinTeam::HasWork() const {
  const uint64_t t = ticket_.load();
  return NextIndex(t) < LoopSize(t);
}

void SpinTeam::HelperLoop() {
  while (true) {
    Await([this] { return stop_.load() || HasWork(); });
    if (stop_.load()) return;
    while (RunOne()) {
    }
  }
}

template <typename Ready>
void SpinTeam::Await(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 0; !ready(); ++i) {
    if (i % 64 == 63 && std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(mu_);
      sleepers_.fetch_add(1);
      cv_.wait(lock, ready);
      sleepers_.fetch_sub(1);
      return;
    }
    std::this_thread::yield();
  }
}

void SpinTeam::WakeSleepers() {
  // Pairs with the sleeper's increment under `mu_` before its final check of
  // the state (all sequentially consistent): a sleeper either sees the new
  // state or is counted here and waits on `cv_` while this thread notifies.
  if (sleepers_.load() == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  cv_.notify_all();
}

}  // namespace sam
