#include "report/run_report.hpp"

#include <gtest/gtest.h>

namespace hammer::report {
namespace {

core::TxRecord record(const std::string& id, std::int64_t start_us, std::int64_t end_us,
                      chain::TxStatus status = chain::TxStatus::kCommitted) {
  core::TxRecord r;
  r.tx_id = id;
  r.start_us = start_us;
  r.end_us = end_us;
  r.status = status;
  r.completed = true;
  return r;
}

class RunReportTest : public ::testing::Test {
 protected:
  RunReportTest()
      : cache_(std::make_shared<kvstore::KvStore>(util::SteadyClock::shared())),
        db_(std::make_shared<minisql::Database>()),
        metrics_(cache_, db_) {}

  void commit(std::vector<core::TxRecord> records) {
    metrics_.push_records(records);
    metrics_.flush();
  }

  std::shared_ptr<kvstore::KvStore> cache_;
  std::shared_ptr<minisql::Database> db_;
  core::MetricsPipeline metrics_;
};

TEST_F(RunReportTest, ComputesTpsAndLatencyFromSql) {
  commit({record("a", 0, 400000),          // 400ms
          record("b", 500000, 1100000),    // 600ms
          record("c", 0, 3000000),         // 3s: excluded from Table II TPS
          record("d", 0, 100000, chain::TxStatus::kConflict)});
  RunReport report = RunReport::build(metrics_, "test");
  EXPECT_EQ(report.table2_tps, 2);  // a, b
  EXPECT_NEAR(report.mean_latency_ms, (400.0 + 600.0 + 3000.0) / 3.0, 40.0);
  EXPECT_NE(report.rendered.find("Hammer run report: test"), std::string::npos);
  EXPECT_NE(report.rendered.find("Table II TPS"), std::string::npos);
}

TEST_F(RunReportTest, TimelineBucketsBySecond) {
  commit({record("a", 0, 1000), record("b", 400000, 500000), record("c", 1200000, 1300000)});
  RunReport report = RunReport::build(metrics_, "timeline");
  ASSERT_EQ(report.tps_timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(report.tps_timeline[0], 2.0);
  EXPECT_DOUBLE_EQ(report.tps_timeline[1], 1.0);
}

TEST_F(RunReportTest, EmptyRunRendersWithoutCrashing) {
  RunReport report = RunReport::build(metrics_, "empty");
  EXPECT_EQ(report.table2_tps, 0);
  EXPECT_TRUE(report.tps_timeline.empty());
  EXPECT_FALSE(report.rendered.empty());
}

TEST_F(RunReportTest, FailedTransactionsExcludedFromLatency) {
  commit({record("bad", 0, 100000, chain::TxStatus::kInvalid)});
  RunReport report = RunReport::build(metrics_, "failed-only");
  EXPECT_EQ(report.table2_tps, 0);
  EXPECT_DOUBLE_EQ(report.mean_latency_ms, 0.0);
}

}  // namespace
}  // namespace hammer::report
