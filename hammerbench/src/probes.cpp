#include "probes.hpp"

#include <chrono>

namespace hammer::bench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The last now() a PacingClock returned to this thread. Clock::sleep_for is
// `sleep_until(now() + d)`, so a deadline exactly poll_interval past it is a
// poll wait; send deadlines come from the schedule and never line up.
thread_local const void* t_last_clock = nullptr;
thread_local util::TimePoint t_last_now{};

}  // namespace

void ChannelStats::record(const std::string& method, std::uint64_t entries,
                          std::int64_t busy_ns) {
  std::scoped_lock lock(mu_);
  MethodStats& m = methods_[method];
  ++m.frames;
  m.entries += entries;
  m.busy_ns += busy_ns;
}

void ChannelStats::record_block(std::size_t receipts) {
  if (receipts == 0) return;
  std::scoped_lock lock(mu_);
  ++blocks_with_txs_;
  block_txs_ += receipts;
}

MethodStats ChannelStats::method(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = methods_.find(name);
  return it == methods_.end() ? MethodStats{} : it->second;
}

std::uint64_t ChannelStats::blocks_with_txs() const {
  std::scoped_lock lock(mu_);
  return blocks_with_txs_;
}

std::uint64_t ChannelStats::block_txs() const {
  std::scoped_lock lock(mu_);
  return block_txs_;
}

CountingChannel::CountingChannel(std::shared_ptr<rpc::Channel> inner,
                                 std::shared_ptr<ChannelStats> stats)
    : inner_(std::move(inner)), stats_(std::move(stats)) {}

json::Value CountingChannel::call(const std::string& method, json::Value params,
                                  const rpc::CallOptions& opts) {
  const std::int64_t begin = steady_ns();
  json::Value result;
  try {
    result = inner_->call(method, std::move(params), opts);
  } catch (...) {
    stats_->record(method, 1, steady_ns() - begin);
    throw;
  }
  stats_->record(method, 1, steady_ns() - begin);
  if (method == "chain.block" && result.is_object() && result.contains("receipts")) {
    stats_->record_block(result.at("receipts").as_array().size());
  }
  return result;
}

std::future<json::Value> CountingChannel::call_async(const std::string& method,
                                                     json::Value params,
                                                     const rpc::CallOptions& opts) {
  // Only the hand-off is timed; the wait belongs to whoever holds the future.
  const std::int64_t begin = steady_ns();
  auto future = inner_->call_async(method, std::move(params), opts);
  stats_->record(method, 1, steady_ns() - begin);
  return future;
}

std::vector<rpc::BatchReply> CountingChannel::call_batch(const std::vector<rpc::BatchCall>& calls,
                                                         const rpc::CallOptions& opts) {
  const std::int64_t begin = steady_ns();
  const std::string method = calls.empty() ? std::string("(empty)") : calls.front().method;
  std::vector<rpc::BatchReply> replies;
  try {
    replies = inner_->call_batch(calls, opts);
  } catch (...) {
    stats_->record(method, calls.size(), steady_ns() - begin);
    throw;
  }
  stats_->record(method, calls.size(), steady_ns() - begin);
  return replies;
}

PacingClock::PacingClock(std::shared_ptr<util::Clock> inner, util::Duration poll_interval)
    : inner_(std::move(inner)), poll_interval_(poll_interval) {}

util::TimePoint PacingClock::now() const {
  util::TimePoint t = inner_->now();
  t_last_clock = this;
  t_last_now = t;
  return t;
}

void PacingClock::sleep_until(util::TimePoint deadline) {
  const bool poll = t_last_clock == this && deadline - t_last_now == poll_interval_;
  const util::TimePoint begin = inner_->now();
  inner_->sleep_until(deadline);
  const std::int64_t waited =
      std::chrono::duration_cast<std::chrono::nanoseconds>(inner_->now() - begin).count();
  if (poll) {
    poll_sleeps_.fetch_add(1, std::memory_order_relaxed);
    poll_wait_ns_.fetch_add(waited, std::memory_order_relaxed);
    return;
  }
  pace_sleeps_.fetch_add(1, std::memory_order_relaxed);
  pace_wait_ns_.fetch_add(waited, std::memory_order_relaxed);
  const std::int64_t d = deadline.time_since_epoch().count();
  std::int64_t seen = first_deadline_ns_.load(std::memory_order_relaxed);
  while (d < seen && !first_deadline_ns_.compare_exchange_weak(seen, d)) {
  }
}

PacingClock::Waits PacingClock::waits() const {
  return Waits{pace_sleeps_.load(), pace_wait_ns_.load(), poll_sleeps_.load(),
               poll_wait_ns_.load()};
}

std::optional<util::TimePoint> PacingClock::schedule_start() const {
  const std::int64_t d = first_deadline_ns_.load();
  if (d == INT64_MAX) return std::nullopt;
  return util::TimePoint(util::Duration(d));
}

}  // namespace hammer::bench
