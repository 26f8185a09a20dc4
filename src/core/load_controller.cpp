#include "core/load_controller.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace hammer::core {

namespace {
// Waiters sleep at most this long per slice so a live set_rate() (or a rate
// raised from near-zero) is picked up promptly.
constexpr util::Duration kMaxSleepSlice = std::chrono::milliseconds(10);
}  // namespace

LoadController::LoadController(LoadOptions options, std::shared_ptr<util::Clock> clock)
    : clock_(std::move(clock)),
      rate_(options.rate > 0.0 ? options.rate : 0.0),
      burst_(std::max(1.0, options.burst)),
      tokens_(std::max(1.0, options.burst)) {
  HAMMER_CHECK(clock_ != nullptr);
  last_refill_ = clock_->now();
}

bool LoadController::open_loop() const {
  std::scoped_lock lock(mu_);
  return rate_ <= 0.0;
}

double LoadController::target_rate() const {
  std::scoped_lock lock(mu_);
  return rate_;
}

void LoadController::set_rate(double rate) {
  std::scoped_lock lock(mu_);
  // Refill at the OLD rate first so tokens accrued up to this instant are
  // honest, then switch.
  refill_locked(clock_->now());
  rate_ = rate > 0.0 ? rate : 0.0;
}

void LoadController::refill_locked(util::TimePoint now) {
  if (rate_ <= 0.0) {
    last_refill_ = now;
    return;
  }
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - last_refill_).count();
  if (elapsed_s > 0.0) {
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
    last_refill_ = now;
  }
}

void LoadController::acquire(std::size_t n) {
  if (n == 0) return;
  const auto want = static_cast<double>(n);
  for (;;) {
    util::Duration wait{};
    {
      std::scoped_lock lock(mu_);
      if (rate_ <= 0.0) {
        // Open loop: account the release, never wait.
        std::int64_t now_us = clock_->now_us();
        if (released_ == 0) first_release_us_ = now_us;
        last_release_us_ = now_us;
        released_ += n;
        return;
      }
      util::TimePoint now = clock_->now();
      refill_locked(now);
      // A batch bigger than the bucket can never see `want` tokens at once;
      // let it leave at burst-full and drive the balance negative (debt) —
      // later acquirers absorb the debt, keeping the average rate exact.
      const double need = std::min(want, burst_);
      if (tokens_ >= need) {
        tokens_ -= want;
        std::int64_t now_us = clock_->now_us();
        if (released_ == 0) first_release_us_ = now_us;
        last_release_us_ = now_us;
        released_ += n;
        return;
      }
      wait = std::chrono::duration_cast<util::Duration>(
          std::chrono::duration<double>((need - tokens_) / rate_));
    }
    clock_->sleep_for(std::min(wait, kMaxSleepSlice));
  }
}

void LoadController::reset() {
  std::scoped_lock lock(mu_);
  tokens_ = burst_;
  last_refill_ = clock_->now();
  released_ = 0;
  first_release_us_ = 0;
  last_release_us_ = 0;
}

std::uint64_t LoadController::released() const {
  std::scoped_lock lock(mu_);
  return released_;
}

double LoadController::offered_rate() const {
  std::scoped_lock lock(mu_);
  if (released_ < 2 || last_release_us_ <= first_release_us_) return 0.0;
  return static_cast<double>(released_) /
         (static_cast<double>(last_release_us_ - first_release_us_) / 1e6);
}

}  // namespace hammer::core
