// Tests of the benchmark's own logic: latency and percentile math, the
// self-checks (which must fail on deliberately broken inputs), the probes
// (which must return exactly what they wrap) and the ledger's exact
// allocation counts.
#include <gtest/gtest.h>

#include <stdexcept>

#include "alloc_hook.hpp"
#include "checks.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace hammer::bench {
namespace {

core::TxRecord record(std::string id, std::uint64_t ordinal, std::int64_t start_us,
                      std::int64_t end_us, chain::TxStatus status, bool completed = true) {
  core::TxRecord r;
  r.tx_id = std::move(id);
  r.ordinal = ordinal;
  r.start_us = start_us;
  r.end_us = end_us;
  r.status = status;
  r.completed = completed;
  return r;
}

TEST(PercentileTest, NearestRankOverOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
}

TEST(PercentileTest, EmptyInputThrows) {
  std::vector<double> v;
  EXPECT_ANY_THROW(percentile(v, 50.0));
}

TEST(PercentileTest, SummaryCarriesSampleCountAndMilliseconds) {
  std::vector<double> us;
  for (int i = 1; i <= 200; ++i) us.push_back(i * 1000.0);  // 1..200 ms
  LatencySummary s = summarize_latency(us);
  EXPECT_EQ(s.samples, 200u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 198.0);
  EXPECT_EQ(summarize_latency({}).samples, 0u);
}

TEST(PercentileTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DueTimeTest, OrdinalOverRateAfterScheduleStart) {
  EXPECT_DOUBLE_EQ(due_us(0, 1000, 1000.0), 1000.0);
  EXPECT_DOUBLE_EQ(due_us(5, 1000, 1000.0), 6000.0);
  EXPECT_DOUBLE_EQ(due_us(3, 0, 6000.0), 500.0);
}

TEST(DueTimeTest, LatencyCountsTheGeneratorStall) {
  // Rate 1000/s from t=0: ordinal i is due at i ms. Ordinal 2 was sent 7 ms
  // late; timed from the due time its latency includes that stall.
  std::vector<core::TxRecord> records = {
      record("a", 0, 0, 10'000, chain::TxStatus::kCommitted),
      record("b", 1, 1'000, 11'000, chain::TxStatus::kInvalid),  // aborted: not timed
      record("c", 2, 9'000, 19'000, chain::TxStatus::kCommitted),
      record("d", 3, 3'000, -1, chain::TxStatus::kCommitted, false),  // pending: not timed
  };
  std::vector<double> due = due_time_latencies_us(records, 0, 1000.0);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_DOUBLE_EQ(due[0], 10'000.0);
  EXPECT_DOUBLE_EQ(due[1], 17'000.0);
  std::vector<double> sent = send_latencies_us(records);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_DOUBLE_EQ(sent[1], 10'000.0);
  std::vector<double> lags = send_lags_us(records, 0, 1000.0);
  ASSERT_EQ(lags.size(), 4u);
  EXPECT_DOUBLE_EQ(lags[2], 7'000.0);
}

core::RunResult balanced() {
  core::RunResult r;
  r.submitted = 100;
  r.committed = 70;
  r.failed = 30;
  return r;
}

TEST(ConservationTest, HoldsOnABalancedRun) {
  EXPECT_TRUE(check_conservation(balanced(), 100).empty());
  EXPECT_DOUBLE_EQ(abort_ratio(balanced()), 0.3);
  EXPECT_DOUBLE_EQ(error_ratio(balanced()), 0.0);
}

TEST(ConservationTest, RejectionsCountedOnceAsErrors) {
  core::RunResult r = balanced();
  r.rejected = 4;  // Hammer tracking also marks these failed
  EXPECT_TRUE(check_conservation(r, 100).empty());
  EXPECT_EQ(receipt_failures(r), 26u);
  EXPECT_DOUBLE_EQ(error_ratio(r), 0.04);
}

TEST(ConservationTest, FailsOnBrokenResults) {
  core::RunResult lost = balanced();
  lost.committed = 69;  // one tx vanished
  EXPECT_FALSE(check_conservation(lost, 100).empty());

  EXPECT_FALSE(check_conservation(balanced(), 101).empty());  // not all sent

  core::RunResult uncounted = balanced();
  uncounted.failed = 2;
  uncounted.committed = 98;
  uncounted.send_failures = 3;  // more write-offs than failed records
  EXPECT_FALSE(check_conservation(uncounted, 100).empty());
}

using Receipt = std::optional<adapters::ChainAdapter::ReceiptInfo>;

Receipt on_chain(chain::TxStatus status) {
  adapters::ChainAdapter::ReceiptInfo info;
  info.height = 1;
  info.status = status;
  return info;
}

TEST(ReceiptCheckTest, MatchingLedgerPasses) {
  std::vector<core::TxRecord> records = {
      record("a", 0, 0, 5, chain::TxStatus::kCommitted),
      record("b", 1, 0, 5, chain::TxStatus::kInvalid),
      record("c", 2, 0, -1, chain::TxStatus::kCommitted, false)};
  std::vector<Receipt> receipts = {on_chain(chain::TxStatus::kCommitted),
                                   on_chain(chain::TxStatus::kInvalid), std::nullopt};
  EXPECT_TRUE(check_receipts(records, receipts).empty());
}

TEST(ReceiptCheckTest, FailsOnEveryKindOfMismatch) {
  std::vector<core::TxRecord> records = {
      record("a", 0, 0, 5, chain::TxStatus::kCommitted),
      record("b", 1, 0, 5, chain::TxStatus::kCommitted),
      record("c", 2, 0, -1, chain::TxStatus::kCommitted, false)};
  std::vector<Receipt> receipts = {on_chain(chain::TxStatus::kInvalid),  // wrong status
                                   std::nullopt,                         // missing
                                   on_chain(chain::TxStatus::kCommitted)};  // never detected
  EXPECT_EQ(check_receipts(records, receipts).size(), 3u);
  EXPECT_EQ(check_receipts(records, receipts, 1).size(), 2u);  // capped + "more"
  std::vector<Receipt> short_answer(2);
  EXPECT_FALSE(check_receipts(records, short_answer).empty());
}

TEST(CheckCloseTest, Tolerance) {
  EXPECT_TRUE(check_close("x", 1050.0, 1000.0, 0.10).empty());
  EXPECT_FALSE(check_close("x", 850.0, 1000.0, 0.10).empty());
}

TEST(ResultLineTest, IsOneJsonObjectWithTheContractKeys) {
  const std::string line =
      result_line(true, 12, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  json::Value v = json::Value::parse(line);
  EXPECT_TRUE(v.at("correct").as_bool());
  EXPECT_EQ(v.at("attempted").as_int(), 12);
  EXPECT_EQ(v.at("failed").as_int(), 0);
  EXPECT_DOUBLE_EQ(v.at("metrics").at("latency_ms").at("value").as_double(), 1.25);
  EXPECT_EQ(v.at("metrics").at("setup_s").at("unit").as_string(), "s");
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// A channel with canned answers, to check the decorator changes nothing.
class CannedChannel final : public rpc::Channel {
 public:
  json::Value call(const std::string& method, json::Value params,
                   const rpc::CallOptions&) override {
    if (method == "boom") throw std::runtime_error("boom");
    if (method == "chain.block") {
      return json::object({{"header", json::object({})},
                           {"receipts", json::array({json::Value(1), json::Value(2)})}});
    }
    return json::object({{"method", method}, {"params", std::move(params)}});
  }
  std::vector<rpc::BatchReply> call_batch(const std::vector<rpc::BatchCall>& calls,
                                          const rpc::CallOptions&) override {
    std::vector<rpc::BatchReply> out;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      rpc::BatchReply reply;
      if (i % 2 == 0) {
        reply.result = calls[i].params;
      } else {
        reply.error_code = rpc::kServerError;
        reply.error_message = "nope";
      }
      out.push_back(std::move(reply));
    }
    return out;
  }
  telemetry::ClockOffset clock_offset() const override {
    telemetry::ClockOffset offset;
    offset.remote_minus_local_us = 42;
    return offset;
  }
};

TEST(CountingChannelTest, ReturnsExactlyWhatItWraps) {
  auto inner = std::make_shared<CannedChannel>();
  auto stats = std::make_shared<ChannelStats>();
  CountingChannel channel(inner, stats);

  json::Value params = json::object({{"k", 7}});
  EXPECT_EQ(channel.call("chain.height", params), inner->call("chain.height", params, {}));
  EXPECT_EQ(channel.call("chain.block", params), inner->call("chain.block", params, {}));
  EXPECT_EQ(channel.call_async("chain.stats", params).get(),
            inner->call("chain.stats", params, {}));

  std::vector<rpc::BatchCall> calls = {{"chain.submit", json::Value(1)},
                                       {"chain.submit", json::Value(2)},
                                       {"chain.submit", json::Value(3)}};
  std::vector<rpc::BatchReply> want = inner->call_batch(calls, {});
  std::vector<rpc::BatchReply> got = channel.call_batch(calls);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].result, want[i].result);
    EXPECT_EQ(got[i].error_code, want[i].error_code);
    EXPECT_EQ(got[i].error_message, want[i].error_message);
  }
  EXPECT_THROW(channel.call("boom", json::Value()), std::runtime_error);
  EXPECT_EQ(channel.clock_offset().remote_minus_local_us, 42);

  EXPECT_EQ(stats->method("chain.submit").frames, 1u);
  EXPECT_EQ(stats->method("chain.submit").entries, 3u);
  EXPECT_EQ(stats->method("chain.height").frames, 1u);
  EXPECT_EQ(stats->method("boom").frames, 1u);  // failed calls still count
  EXPECT_EQ(stats->blocks_with_txs(), 1u);
  EXPECT_EQ(stats->block_txs(), 2u);
}

// A clock whose time only moves when told and whose sleeps return at once,
// recording the deadline.
class StepClock final : public util::Clock {
 public:
  util::TimePoint now() const override { return now_; }
  void sleep_until(util::TimePoint deadline) override { deadlines.push_back(deadline); }
  util::TimePoint now_{std::chrono::seconds(100)};
  std::vector<util::TimePoint> deadlines;
};

TEST(PacingClockTest, ReturnsExactlyWhatItWrapsAndSplitsWaits) {
  auto inner = std::make_shared<StepClock>();
  PacingClock clock(inner, std::chrono::milliseconds(25));
  EXPECT_EQ(clock.now(), inner->now());
  EXPECT_FALSE(clock.schedule_start().has_value());

  clock.sleep_for(std::chrono::milliseconds(25));  // a poll wait
  const util::TimePoint first = inner->now_ + std::chrono::milliseconds(3);
  const util::TimePoint second = inner->now_ + std::chrono::milliseconds(1);
  clock.sleep_until(first);   // pacing
  clock.sleep_until(second);  // pacing, earlier deadline
  clock.sleep_for(std::chrono::milliseconds(7));  // not the poll interval: pacing

  ASSERT_EQ(inner->deadlines.size(), 4u);
  EXPECT_EQ(inner->deadlines[0], inner->now_ + std::chrono::milliseconds(25));
  EXPECT_EQ(inner->deadlines[1], first);
  EXPECT_EQ(inner->deadlines[2], second);
  const PacingClock::Waits waits = clock.waits();
  EXPECT_EQ(waits.poll_sleeps, 1u);
  EXPECT_EQ(waits.pace_sleeps, 3u);
  ASSERT_TRUE(clock.schedule_start().has_value());
  EXPECT_EQ(*clock.schedule_start(), second);

  inner->now_ += std::chrono::seconds(1);
  EXPECT_EQ(clock.now(), inner->now());
  EXPECT_EQ(clock.now_us(), inner->now_us());
}

TEST(LedgerTest, AllocationCountsRepeatExactly) {
  const WorkloadSpec spec = workload_spec("replay");
  const std::vector<std::string> accounts = genesis_accounts(spec);
  (void)run_ledger(workload_profile(7), accounts, 300, 100);  // lazy statics
  LedgerResult a = run_ledger(workload_profile(7), accounts, 300, 100);
  LedgerResult b = run_ledger(workload_profile(7), accounts, 300, 100);
  EXPECT_TRUE(a.violations.empty());
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  std::size_t alloc_rows = 0;
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    ASSERT_EQ(a.metrics[i].name, b.metrics[i].name);
    const bool counted = a.metrics[i].name.find("_allocs") != std::string::npos ||
                         a.metrics[i].name.find("_bytes") != std::string::npos;
    if (!counted) continue;
    ++alloc_rows;
    EXPECT_EQ(a.metrics[i].value, b.metrics[i].value) << a.metrics[i].name;
  }
  EXPECT_GE(alloc_rows, 9u);
}

TEST(AllocHookTest, CountsThisThreadsAllocations) {
  // A direct operator new call: a new-expression may be elided.
  const AllocCount before = thread_allocs();
  void* p = ::operator new(4000);
  const AllocCount after = thread_allocs();
  ::operator delete(p);
  EXPECT_EQ(after.allocs - before.allocs, 1u);
  EXPECT_EQ(after.bytes - before.bytes, 4000u);
}

}  // namespace
}  // namespace hammer::bench
