#include "core/load_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace hammer::core {
namespace {

std::shared_ptr<util::Clock> clock_ptr() { return util::SteadyClock::shared(); }

TEST(LoadControllerTest, OpenLoopNeverWaits) {
  LoadOptions options;  // rate = 0
  LoadController load(options, clock_ptr());
  EXPECT_TRUE(load.open_loop());
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) load.acquire(10);
  auto elapsed = std::chrono::steady_clock::now() - start;
  // 10k tokens through a 64-burst bucket would take minutes at any finite
  // rate; open loop must be pure accounting.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(load.released(), 10000u);
}

TEST(LoadControllerTest, PacedAcquireHoldsTheTargetRate) {
  LoadOptions options;
  // 500/s with a 4-token burst means ~8 ms sleeps between releases — long
  // enough that scheduler oversleep under a loaded ctest stays a small
  // fraction of each wait (2000/s with its 2 ms sleeps was flaky there).
  options.rate = 500.0;
  options.burst = 4.0;  // small burst so the measured window is honest
  LoadController load(options, clock_ptr());
  EXPECT_FALSE(load.open_loop());
  for (int i = 0; i < 200; ++i) load.acquire(1);
  // 200 tokens at 500/s with a 4-token burst: the release window must span
  // roughly (200 - burst)/rate ~ 0.392s, and offered_rate lands near target.
  double offered = load.offered_rate();
  EXPECT_GT(offered, 0.0);
  EXPECT_NEAR(offered, 500.0, 500.0 * 0.05);
}

// Virtual time for one thread: sleep_until jumps straight to the deadline,
// so a paced run's release times depend on the pacing arithmetic alone, not
// on how the scheduler treats the test's sleeps.
class JumpClock final : public util::Clock {
 public:
  util::TimePoint now() const override { return now_; }
  void sleep_until(util::TimePoint deadline) override { now_ = std::max(now_, deadline); }

 private:
  util::TimePoint now_{};
};

TEST(LoadControllerTest, BatchBiggerThanBurstRunsDebtNotDeadlock) {
  LoadOptions options;
  options.rate = 4000.0;
  options.burst = 8.0;
  LoadController load(options, std::make_shared<JumpClock>());
  // Each 32-token batch can never see 32 tokens at once; it must leave at
  // burst-full and drive the bucket into debt. The long-run rate stays exact:
  // 24 waits of 32/4000 s after the first release give 800 / 0.192 s.
  for (int i = 0; i < 25; ++i) load.acquire(32);
  EXPECT_EQ(load.released(), 800u);
  EXPECT_NEAR(load.offered_rate(), 4000.0, 4000.0 * 0.1);
}

TEST(LoadControllerTest, SetRateRetargetsLive) {
  LoadOptions options;
  options.rate = 100.0;
  LoadController load(options, clock_ptr());
  EXPECT_DOUBLE_EQ(load.target_rate(), 100.0);
  load.set_rate(5000.0);
  EXPECT_DOUBLE_EQ(load.target_rate(), 5000.0);
  EXPECT_FALSE(load.open_loop());
  load.set_rate(0.0);
  EXPECT_TRUE(load.open_loop());
  // Open loop after the retarget: a big batch returns immediately.
  auto start = std::chrono::steady_clock::now();
  load.acquire(100000);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(LoadControllerTest, SetRateUnblocksAWaitingAcquirer) {
  LoadOptions options;
  options.rate = 0.1;  // one token per 10s: the next acquire waits ~10s
  options.burst = 1.0;
  LoadController load(options, clock_ptr());
  load.acquire(1);  // drain the bucket
  auto start = std::chrono::steady_clock::now();
  std::thread waiter([&] { load.acquire(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  load.set_rate(0.0);  // waiting acquirer must notice within a sleep slice
  waiter.join();       // would block ~10s if set_rate were not live
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(load.released(), 2u);
}

TEST(LoadControllerTest, ResetClearsTheWindowButKeepsTheRate) {
  LoadOptions options;
  options.rate = 10000.0;
  LoadController load(options, clock_ptr());
  load.acquire(4);
  load.acquire(4);
  EXPECT_EQ(load.released(), 8u);
  load.reset();
  EXPECT_EQ(load.released(), 0u);
  EXPECT_DOUBLE_EQ(load.offered_rate(), 0.0);
  EXPECT_DOUBLE_EQ(load.target_rate(), 10000.0);
}

TEST(LoadControllerTest, OfferedRateNeedsTwoReleaseInstants) {
  LoadOptions options;
  LoadController load(options, clock_ptr());
  EXPECT_DOUBLE_EQ(load.offered_rate(), 0.0);
  load.acquire(1);
  EXPECT_DOUBLE_EQ(load.offered_rate(), 0.0);  // one instant, no window yet
}

// Concurrent acquirers against one bucket: accounting stays exact and the
// aggregate rate holds (the TSAN coverage for the pacing gate).
TEST(LoadControllerTest, ConcurrentAcquirersShareTheBucketExactly) {
  LoadOptions options;
  options.rate = 8000.0;
  options.burst = 16.0;
  LoadController load(options, clock_ptr());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) load.acquire(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(load.released(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // 800 tokens at 8000/s: aggregate offered rate must stay near target even
  // with four workers contending (generous band — scheduling noise).
  EXPECT_NEAR(load.offered_rate(), 8000.0, 8000.0 * 0.25);
}

}  // namespace
}  // namespace hammer::core
