#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <thread>

#include "telemetry/registry.hpp"

namespace hammer::core {
namespace {

TxRecord record(const std::string& id, std::int64_t start_us, std::int64_t end_us,
                chain::TxStatus status = chain::TxStatus::kCommitted) {
  TxRecord r;
  r.tx_id = id;
  r.start_us = start_us;
  r.end_us = end_us;
  r.status = status;
  r.completed = end_us >= 0;
  r.client_id = "c0";
  r.server_id = "s0";
  r.chainname = "fabric-1";
  r.contractname = "smallbank";
  return r;
}

class MetricsPipelineTest : public ::testing::Test {
 protected:
  MetricsPipelineTest()
      : cache_(std::make_shared<kvstore::KvStore>(util::SteadyClock::shared())),
        db_(std::make_shared<minisql::Database>()),
        pipeline_(cache_, db_) {}

  std::shared_ptr<kvstore::KvStore> cache_;
  std::shared_ptr<minisql::Database> db_;
  MetricsPipeline pipeline_;
};

TEST_F(MetricsPipelineTest, PushWritesHashesToCache) {
  std::vector<TxRecord> records = {record("t1", 100, 600000)};
  pipeline_.push_records(records);
  kvstore::Hash cached = cache_->hgetall("perf:t1");
  EXPECT_EQ(cached.at("status"), "1");
  EXPECT_EQ(cached.at("start_time"), "100");
  EXPECT_EQ(cached.at("end_time"), "600000");
  EXPECT_EQ(cached.at("chainname"), "fabric-1");
  EXPECT_EQ(cache_->dirty_count(), 1u);
}

TEST_F(MetricsPipelineTest, PendingRecordsHaveNoEndTime) {
  std::vector<TxRecord> records = {record("t1", 100, -1)};
  pipeline_.push_records(records);
  EXPECT_EQ(cache_->hgetall("perf:t1").count("end_time"), 0u);
  // Not committed to SQL until completed.
  EXPECT_EQ(cache_->dirty_count(), 0u);
  EXPECT_EQ(pipeline_.flush(), 0u);
}

TEST_F(MetricsPipelineTest, CommitMovesCompletedRowsAndClearsCache) {
  std::vector<TxRecord> records = {record("t1", 0, 500000), record("t2", 0, -1)};
  pipeline_.push_records(records);
  EXPECT_EQ(pipeline_.flush(), 1u);
  EXPECT_FALSE(cache_->exists("perf:t1"));
  EXPECT_TRUE(cache_->exists("perf:t2"));
  EXPECT_EQ(db_->table("Performance").row_count(), 1u);
  // Second flush is a no-op for already-moved rows.
  EXPECT_EQ(pipeline_.flush(), 0u);
}

TEST_F(MetricsPipelineTest, Table2TpsQueryCountsSubSecondCommits) {
  std::vector<TxRecord> records = {
      record("fast", 0, 300000),                              // 0.3s: counted
      record("slow", 0, 2500000),                             // 2.5s: excluded
      record("failed", 0, 100000, chain::TxStatus::kInvalid)  // failed: excluded
  };
  pipeline_.push_records(records);
  pipeline_.flush();
  EXPECT_EQ(pipeline_.query_tps(), 1);
}

TEST_F(MetricsPipelineTest, LatencyQueryComputesMilliseconds) {
  std::vector<TxRecord> records = {record("t", 1000000, 1250000)};
  pipeline_.push_records(records);
  pipeline_.flush();
  minisql::ResultSet rs = pipeline_.query_latencies();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.column_names[3], "LATENCY");
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][3]), 250);
}

TEST_F(MetricsPipelineTest, ReusesExistingPerformanceTable) {
  // A second pipeline over the same database must not recreate the table.
  MetricsPipeline second(cache_, db_);
  SUCCEED();
}

std::vector<TxRecord> numbered_records(std::size_t count) {
  std::vector<TxRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(record("t" + std::to_string(i), 0, static_cast<std::int64_t>(i) * 1000));
  }
  return records;
}

MetricsOptions write_behind_options(std::size_t batch_size, util::Duration interval) {
  MetricsOptions options;
  options.write_behind = true;
  options.commit_batch_size = batch_size;
  options.flush_interval = interval;
  return options;
}

TEST_F(MetricsPipelineTest, FlushDrainsDirtyRowsInBatches) {
  MetricsPipeline pipeline(cache_, db_, write_behind_options(4, std::chrono::seconds(10)));
  telemetry::Counter& flushes =
      telemetry::MetricRegistry::global().counter("hammer_store_flushes_total");
  const std::uint64_t flushes_before = flushes.value();
  // Without a started committer thread nothing drains until flush().
  pipeline.push_records(numbered_records(10));
  EXPECT_EQ(cache_->dirty_count(), 10u);
  EXPECT_EQ(pipeline.flush(), 10u);
  EXPECT_EQ(db_->table("Performance").row_count(), 10u);
  EXPECT_EQ(pipeline.rows_committed(), 10u);
  EXPECT_EQ(flushes.value() - flushes_before, 1u);  // one drain round, chunked internally
  EXPECT_EQ(cache_->dirty_count(), 0u);
}

// The crash-drain guarantee: rows buffered in the dirty sets while the
// committer thread never got a chance to flush (10s interval, batch size
// never reached) must all land in SQL on flush_and_stop().
TEST_F(MetricsPipelineTest, FlushAndStopLosesNoBufferedRow) {
  MetricsPipeline pipeline(cache_, db_, write_behind_options(1 << 20, std::chrono::seconds(10)));
  pipeline.start_committer();
  pipeline.push_records(numbered_records(500));
  EXPECT_EQ(pipeline.flush_and_stop(), 500u);
  EXPECT_EQ(db_->table("Performance").row_count(), 500u);
  EXPECT_EQ(cache_->dirty_count(), 0u);
  // Idempotent: a second stop drains nothing further.
  EXPECT_EQ(pipeline.flush_and_stop(), 0u);
  EXPECT_EQ(db_->table("Performance").row_count(), 500u);
}

TEST_F(MetricsPipelineTest, BackgroundThreadFlushesOnInterval) {
  MetricsPipeline pipeline(cache_, db_,
                           write_behind_options(1 << 20, std::chrono::milliseconds(5)));
  pipeline.start_committer();
  pipeline.push_records(numbered_records(20));
  // Well under the batch size, so only the interval can flush this.
  for (int spin = 0; spin < 200 && pipeline.rows_committed() < 20; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pipeline.rows_committed(), 20u);
  pipeline.flush_and_stop();
  EXPECT_EQ(db_->table("Performance").row_count(), 20u);
}

TEST_F(MetricsPipelineTest, InlineDrainStartsAtBatchSize) {
  MetricsOptions options;
  options.commit_batch_size = 4;
  MetricsPipeline pipeline(cache_, db_, options);
  pipeline.start_committer();  // no thread without write_behind
  pipeline.push_records(numbered_records(10));
  // Two inline drains of four rows; the last two wait for the final drain.
  EXPECT_EQ(pipeline.rows_committed(), 8u);
  EXPECT_EQ(cache_->dirty_count(), 2u);
  EXPECT_EQ(pipeline.flush_and_stop(), 2u);
  EXPECT_EQ(db_->table("Performance").row_count(), 10u);
}

// --- equivalence: the Table II results against summarize() of the same records ---

std::vector<TxRecord> seeded_records(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<TxRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TxRecord r;
    r.tx_id = "tx-" + std::to_string(i);
    r.start_us = static_cast<std::int64_t>(1000 + rng() % 5000000);
    switch (rng() % 4) {
      case 0:  // never completed
        r.completed = false;
        break;
      case 1:  // completed but failed
        r.completed = true;
        r.end_us = r.start_us + static_cast<std::int64_t>(rng() % 800000);
        r.status = chain::TxStatus::kConflict;
        break;
      default:  // committed
        r.completed = true;
        r.end_us = r.start_us + static_cast<std::int64_t>(rng() % 800000);
        r.status = chain::TxStatus::kCommitted;
        break;
    }
    r.client_id = "client-" + std::to_string(rng() % 4);
    r.server_id = "server-" + std::to_string(rng() % 2);
    r.chainname = "fabric-1";
    r.contractname = "smallbank";
    records.push_back(std::move(r));
  }
  return records;
}

// Pushes the records the way the driver does: every record cached pending
// first, then the final states in uneven chunks, then flush_and_stop().
// Checks the Table II results against summarize() of the same records.
void expect_table2_matches_summarize(MetricsOptions options,
                                     kvstore::KvStore::Options cache_options, std::size_t count) {
  const std::vector<TxRecord> records = seeded_records(count, 20260806);
  auto cache = std::make_shared<kvstore::KvStore>(util::SteadyClock::shared(), cache_options);
  auto db = std::make_shared<minisql::Database>();
  MetricsPipeline pipeline(cache, db, options);
  pipeline.start_committer();

  std::vector<TxRecord> pending = records;
  for (TxRecord& r : pending) r.completed = false;
  pipeline.push_records(pending);
  std::size_t at = 0;
  std::size_t chunk = 1;
  while (at < records.size()) {
    std::size_t n = std::min(chunk, records.size() - at);
    pipeline.push_records(std::span<const TxRecord>(records.data() + at, n));
    at += n;
    chunk = chunk % 37 + 1;
  }
  pipeline.flush_and_stop();

  const RunResult summary = summarize(records);
  EXPECT_EQ(pipeline.rows_dropped(), 0u);
  EXPECT_EQ(pipeline.rows_committed(), summary.committed + summary.failed);

  // Latency rows == completed records, each with Latency == (end - start)
  // in whole milliseconds (TIMESTAMPDIFF truncates).
  std::map<std::string, const TxRecord*> by_id;
  for (const TxRecord& r : records) by_id[r.tx_id] = &r;
  minisql::ResultSet latencies = pipeline.query_latencies();
  EXPECT_EQ(latencies.rows.size(), summary.committed + summary.failed);
  std::set<std::string> seen;
  for (const auto& row : latencies.rows) {
    const std::string& id = std::get<std::string>(row[0]);
    ASSERT_TRUE(by_id.count(id)) << id;
    const TxRecord& r = *by_id.at(id);
    EXPECT_TRUE(r.completed) << id;
    EXPECT_TRUE(seen.insert(id).second) << "duplicate row " << id;
    EXPECT_EQ(std::get<std::int64_t>(row[1]), r.start_us);
    EXPECT_EQ(std::get<std::int64_t>(row[2]), r.end_us);
    EXPECT_EQ(std::get<std::int64_t>(row[3]), (r.end_us - r.start_us) / 1000) << id;
  }

  // The STATUS = '1' count == committed.
  minisql::ResultSet committed =
      db->query("SELECT COUNT(*) FROM Performance WHERE STATUS = '1'");
  EXPECT_EQ(std::get<std::int64_t>(committed.rows[0][0]),
            static_cast<std::int64_t>(summary.committed));
  EXPECT_GT(summary.committed, 0u);
  EXPECT_GT(summary.failed, 0u);
  EXPECT_GT(summary.unmatched, 0u);
}

TEST(MetricsEquivalenceTest, CommitterThreadMatchesSummarize) {
  MetricsOptions options;
  options.write_behind = true;
  options.commit_batch_size = 16;
  options.flush_interval = std::chrono::milliseconds(1);
  expect_table2_matches_summarize(options, kvstore::KvStore::Options{.num_shards = 4}, 400);
}

TEST(MetricsEquivalenceTest, InlineDrainMatchesSummarize) {
  MetricsOptions options;
  options.commit_batch_size = 16;
  expect_table2_matches_summarize(options, kvstore::KvStore::Options{.num_shards = 4}, 400);
}

// More completed records than one shard's dirty set holds, pushed inline:
// draining at the batch size keeps every mark inside the bound.
TEST(MetricsEquivalenceTest, InlineDrainDropsNoRowPastDirtyCapacity) {
  MetricsOptions options;
  options.commit_batch_size = 8;
  expect_table2_matches_summarize(
      options, kvstore::KvStore::Options{.num_shards = 1, .dirty_capacity_per_shard = 8}, 400);
}

TEST(SummarizeTest, ComputesTpsAndLatency) {
  std::vector<TxRecord> records = {
      record("a", 0, 1000000),        // 1s latency
      record("b", 500000, 1000000),   // 0.5s
      record("c", 0, 2000000),        // 2s -> run spans 2s
      record("d", 0, -1),             // unmatched
      record("e", 0, 100000, chain::TxStatus::kConflict),
  };
  RunResult result = summarize(records);
  EXPECT_EQ(result.submitted, 5u);
  EXPECT_EQ(result.committed, 3u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.unmatched, 1u);
  EXPECT_DOUBLE_EQ(result.duration_s, 2.0);
  EXPECT_DOUBLE_EQ(result.tps, 1.5);
  EXPECT_EQ(result.latency.count(), 3u);
}

TEST(SummarizeTest, EmptyRecords) {
  RunResult result = summarize(std::vector<TxRecord>{});
  EXPECT_EQ(result.submitted, 0u);
  EXPECT_DOUBLE_EQ(result.tps, 0.0);
}

TEST(SummarizeTest, JsonAndSummaryRender) {
  std::vector<TxRecord> records = {record("a", 0, 500000)};
  RunResult result = summarize(records);
  json::Value v = result.to_json();
  EXPECT_EQ(v.at("committed").as_int(), 1);
  EXPECT_NE(result.summary().find("committed=1"), std::string::npos);
}

TEST(RunResultRateTest, RateFieldsSurviveTheWireRoundTrip) {
  std::vector<TxRecord> records = {record("a", 0, 500000), record("b", 0, 900000)};
  RunResult result = summarize(records);
  result.target_rate = 500.0;
  result.offered_rate = 488.5;
  result.achieved_rate = result.tps;
  RunResult back = RunResult::from_wire_json(result.to_wire_json());
  EXPECT_DOUBLE_EQ(back.target_rate, 500.0);
  EXPECT_DOUBLE_EQ(back.offered_rate, 488.5);
  EXPECT_DOUBLE_EQ(back.achieved_rate, result.tps);
  // Display JSON carries them too (the capacity-planning surface).
  json::Value v = result.to_json();
  EXPECT_DOUBLE_EQ(v.at("target_rate").as_double(), 500.0);
  EXPECT_DOUBLE_EQ(v.at("offered_rate").as_double(), 488.5);
}

TEST(RunResultRateTest, MergeSumsTargetsAndRecomputesAchieved) {
  // Two workers each paced at 300 tps over the same 2-second envelope: the
  // fleet's aggregate target/offered are the sums, and achieved_rate is the
  // merged committed-per-second (not a sum of per-worker rates).
  std::vector<TxRecord> part1_records = {record("a", 0, 1000000), record("b", 0, 2000000)};
  std::vector<TxRecord> part2_records = {record("c", 0, 1500000), record("d", 0, 2000000)};
  RunResult part1 = summarize(part1_records);
  RunResult part2 = summarize(part2_records);
  part1.target_rate = 300.0;
  part1.offered_rate = 295.0;
  part2.target_rate = 300.0;
  part2.offered_rate = 290.0;
  std::vector<RunResult> parts = {part1, part2};
  RunResult merged = merge_run_results(parts);
  EXPECT_DOUBLE_EQ(merged.target_rate, 600.0);
  EXPECT_DOUBLE_EQ(merged.offered_rate, 585.0);
  EXPECT_DOUBLE_EQ(merged.achieved_rate, merged.tps);
  EXPECT_DOUBLE_EQ(merged.tps, 2.0);  // 4 commits over the 2s envelope
}

}  // namespace
}  // namespace hammer::core
