// SpinTeam correctness: every index of every loop runs exactly once, the
// caller works too, loops separated by more than the spin window (every
// waiting thread asleep) still complete, and a throwing index is rethrown
// only after every index is done.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/spin_team.h"

namespace sam {
namespace {

TEST(SpinTeamTest, RunVisitsEveryIndexOnce) {
  for (size_t threads : {1, 2, 4}) {
    SpinTeam team(threads);
    EXPECT_EQ(team.threads(), threads);
    for (size_t n : {1, 3, 4, 7, 1000}) {
      std::vector<std::atomic<int>> visits(n);
      team.Run(n, [&](size_t i) { visits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "threads " << threads << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(SpinTeamTest, ZeroIsANoop) {
  SpinTeam team(2);
  team.Run(0, [](size_t) { FAIL() << "fn called for n == 0"; });
}

TEST(SpinTeamTest, OneThreadRunsInlineOnTheCaller) {
  SpinTeam team(1);
  const std::thread::id caller = std::this_thread::get_id();
  team.Run(5, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(SpinTeamTest, BackToBackLoopsSeeEachOthersWrites) {
  // Each loop reads what the previous loop wrote: Run must not return before
  // every index is done, and helpers must see the caller's writes made
  // between loops.
  SpinTeam team(4);
  std::vector<int> data(64, 0);
  for (int round = 1; round <= 500; ++round) {
    team.Run(data.size(), [&](size_t i) {
      EXPECT_EQ(data[i], round - 1);
      data[i] = round;
    });
  }
  for (int v : data) EXPECT_EQ(v, 500);
}

TEST(SpinTeamTest, LoopsAfterTheSpinWindowWakeSleepingThreads) {
  // Between these loops every waiting thread outlasts kSpin and sleeps; the
  // loops must still complete, and the helpers must take part again.
  SpinTeam team(3);
  const auto pause = SpinTeam::kSpin * 3;
  std::atomic<bool> helper_ran{false};
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(pause);
    std::atomic<int> count{0};
    team.Run(3, [&](size_t) {
      if (std::this_thread::get_id() != caller) helper_ran.store(true);
      count.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    EXPECT_EQ(count.load(), 3);
  }
  EXPECT_TRUE(helper_ran.load());
}

TEST(SpinTeamTest, RethrowsAfterEveryIndexIsDone) {
  SpinTeam team(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> finished{0};
    try {
      team.Run(16, [&](size_t i) {
        if (i == 0) throw std::runtime_error("boom");
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        finished.fetch_add(1);
      });
      FAIL() << "expected the exception to propagate";
    } catch (const std::runtime_error&) {
      EXPECT_EQ(finished.load(), 15) << "indices still running after unwind";
    }
  }
  // The team stays usable after a failed loop.
  std::atomic<int> count{0};
  team.Run(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

}  // namespace
}  // namespace sam
