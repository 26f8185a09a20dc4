// Benchmark-side probes: decorators handed to the driver in place of the
// objects they wrap. They return exactly what the wrapped object returns and
// only record where time and calls went.
//
//   CountingChannel  wraps an rpc::Channel; per method it counts frames,
//                    entries (calls carried by batch frames) and the wall
//                    time the caller spent blocked in the call. chain.block
//                    results also feed a receipts-per-block tally.
//   PacingClock      wraps a util::Clock; splits sleep_until waits into
//                    pacing (send deadlines) and polling (Clock::sleep_for,
//                    recognised as now() + poll_interval on the same thread),
//                    and remembers the earliest pacing deadline, which is
//                    the open-loop schedule's start.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"

namespace hammer::bench {

struct MethodStats {
  std::uint64_t frames = 0;   // call()/call_async()/call_batch() invocations
  std::uint64_t entries = 0;  // calls carried (1 per call, n per batch)
  std::int64_t busy_ns = 0;   // caller-side blocked time
};

// Shared by every CountingChannel of one run.
class ChannelStats {
 public:
  void record(const std::string& method, std::uint64_t entries, std::int64_t busy_ns);
  void record_block(std::size_t receipts);

  MethodStats method(const std::string& name) const;
  std::uint64_t blocks_with_txs() const;
  std::uint64_t block_txs() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, MethodStats> methods_;
  std::uint64_t blocks_with_txs_ = 0;
  std::uint64_t block_txs_ = 0;
};

class CountingChannel final : public rpc::Channel {
 public:
  CountingChannel(std::shared_ptr<rpc::Channel> inner, std::shared_ptr<ChannelStats> stats);

  json::Value call(const std::string& method, json::Value params,
                   const rpc::CallOptions& opts = {}) override;
  std::future<json::Value> call_async(const std::string& method, json::Value params,
                                      const rpc::CallOptions& opts = {}) override;
  std::vector<rpc::BatchReply> call_batch(const std::vector<rpc::BatchCall>& calls,
                                          const rpc::CallOptions& opts = {}) override;
  telemetry::ClockOffset clock_offset() const override { return inner_->clock_offset(); }

 private:
  std::shared_ptr<rpc::Channel> inner_;
  std::shared_ptr<ChannelStats> stats_;
};

class PacingClock final : public util::Clock {
 public:
  PacingClock(std::shared_ptr<util::Clock> inner, util::Duration poll_interval);

  util::TimePoint now() const override;
  void sleep_until(util::TimePoint deadline) override;

  struct Waits {
    std::uint64_t pace_sleeps = 0;
    std::int64_t pace_wait_ns = 0;
    std::uint64_t poll_sleeps = 0;
    std::int64_t poll_wait_ns = 0;
  };
  Waits waits() const;

  // Earliest pacing deadline seen (the RateController's start: its first
  // deadline is the schedule start itself); nullopt before any.
  std::optional<util::TimePoint> schedule_start() const;

 private:
  std::shared_ptr<util::Clock> inner_;
  const util::Duration poll_interval_;
  std::atomic<std::uint64_t> pace_sleeps_{0};
  std::atomic<std::int64_t> pace_wait_ns_{0};
  std::atomic<std::uint64_t> poll_sleeps_{0};
  std::atomic<std::int64_t> poll_wait_ns_{0};
  std::atomic<std::int64_t> first_deadline_ns_{INT64_MAX};
};

}  // namespace hammer::bench
