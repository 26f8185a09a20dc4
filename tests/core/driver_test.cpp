// End-to-end driver tests: deployment + workload + driver against the
// chain simulators, covering all three tracking modes.
#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/deployment.hpp"

namespace hammer::core {

// Names each DriverModeTest instance after its mode (gtest prints the
// parameter; ctest makes it the test name's suffix).
void PrintTo(TrackingMode mode, std::ostream* os) {
  switch (mode) {
    case TrackingMode::kHammer: *os << "Hammer"; return;
    case TrackingMode::kBatchQueue: *os << "BatchQueue"; return;
    case TrackingMode::kInteractive: *os << "Interactive"; return;
  }
}

namespace {

using namespace std::chrono_literals;

struct Harness {
  explicit Harness(const std::string& kind, int extra_shards = 0) {
    json::Object spec;
    spec["kind"] = kind;
    spec["name"] = "sut";
    spec["block_interval_ms"] = kind == "ethereum" ? 40 : 15;
    if (kind == "ethereum") spec["hash_rate"] = 2000000;
    if (extra_shards > 0) spec["num_shards"] = extra_shards;
    spec["smallbank_accounts_per_shard"] = 50;
    json::Object plan;
    plan["chains"] = json::Value(json::Array{json::Value(std::move(spec))});
    deployment = std::make_unique<Deployment>(
        Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared()));
  }

  workload::WorkloadFile make_workload(std::size_t count) {
    workload::WorkloadProfile profile;
    profile.seed = 11;
    return workload::generate_workload(profile, deployment->at("sut").smallbank_accounts,
                                       count);
  }

  RunResult run(DriverOptions options, std::size_t count,
                const workload::ControlSequence* rate = nullptr) {
    auto& sut = deployment->at("sut");
    HammerDriver driver(
        SutCluster::single(sut.make_adapters(options.worker_threads), sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), std::move(options));
    return driver.run(make_workload(count), rate);
  }

  std::unique_ptr<Deployment> deployment;
};

TEST(DriverTest, HammerModeCommitsClosedLoopWorkload) {
  Harness h("neuchain");
  DriverOptions options;
  options.worker_threads = 2;
  RunResult result = h.run(options, 300);
  EXPECT_EQ(result.submitted, 300u);
  EXPECT_EQ(result.unmatched, 0u);
  // amalgamate zeroes accounts, so later withdrawals legitimately fail;
  // with 50 accounts and 300 txs roughly 4/5 commit.
  EXPECT_GT(result.committed, 200u);
  EXPECT_GT(result.tps, 0.0);
  EXPECT_GT(result.latency.count(), 0u);
}

TEST(DriverTest, HammerModeOpenLoopFollowsRatePlan) {
  Harness h("neuchain");
  DriverOptions options;
  options.worker_threads = 2;
  workload::ControlSequence rate =
      workload::ControlSequence::constant(400.0, 500ms, 100ms);  // 200 tx over 0.5s
  RunResult result = h.run(options, 200, &rate);
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.unmatched, 0u);
  // Open loop at 400 tx/s: the run should take roughly >= 0.4s.
  EXPECT_GE(result.duration_s, 0.3);
}

TEST(DriverTest, BatchQueueModeMatchesHammerCounts) {
  Harness h("neuchain");
  DriverOptions options;
  options.mode = TrackingMode::kBatchQueue;
  options.worker_threads = 2;
  RunResult result = h.run(options, 200);
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 150u);
}

TEST(DriverTest, InteractiveModeTracksPerTransaction) {
  Harness h("neuchain");
  DriverOptions options;
  options.mode = TrackingMode::kInteractive;
  options.worker_threads = 2;
  RunResult result = h.run(options, 60);
  EXPECT_EQ(result.submitted, 60u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 40u);
}

TEST(DriverTest, WorksAgainstFabric) {
  Harness h("fabric");
  DriverOptions options;
  options.worker_threads = 2;
  RunResult result = h.run(options, 150);
  EXPECT_EQ(result.submitted, 150u);
  EXPECT_EQ(result.unmatched, 0u);
  // Fabric produces some MVCC conflicts under concurrent load; they are
  // counted as failed, and committed + failed covers everything.
  EXPECT_EQ(result.committed + result.failed, 150u);
}

TEST(DriverTest, WorksAgainstShardedMeepo) {
  Harness h("meepo", 2);
  DriverOptions options;
  options.worker_threads = 2;
  RunResult result = h.run(options, 150);
  EXPECT_EQ(result.submitted, 150u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 100u);
}

TEST(DriverTest, WorksAgainstEthereumPow) {
  Harness h("ethereum");
  DriverOptions options;
  options.worker_threads = 1;
  options.drain_timeout = 30s;
  RunResult result = h.run(options, 40);
  EXPECT_EQ(result.submitted, 40u);
  EXPECT_EQ(result.unmatched, 0u);
}

TEST(DriverTest, MetricsPipelineReceivesRecords) {
  Harness h("neuchain");
  auto cache = std::make_shared<kvstore::KvStore>(util::SteadyClock::shared());
  auto db = std::make_shared<minisql::Database>();
  DriverOptions options;
  options.worker_threads = 2;
  options.metrics = std::make_shared<MetricsPipeline>(cache, db);
  RunResult result = h.run(options, 100);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_EQ(db->table("Performance").row_count(), 100u);
  EXPECT_GT(options.metrics->query_tps(), 0);
}

TEST(DriverTest, SerialSigningModeStillCompletes) {
  Harness h("neuchain");
  DriverOptions options;
  options.worker_threads = 2;
  options.pipelined_signing = false;
  RunResult result = h.run(options, 100);
  EXPECT_EQ(result.submitted, 100u);
  EXPECT_EQ(result.unmatched, 0u);
}

// Where each tracking mode puts a transaction the SUT refused or the worker
// wrote off. Algorithm 1 and the receipt listener settle it as failed; the
// Blockbench-style queue has no removal path, so the id rots there and
// surfaces as unmatched.
class DriverModeTest : public ::testing::TestWithParam<TrackingMode> {
 protected:
  bool queue_keeps_unsettled() const { return GetParam() == TrackingMode::kBatchQueue; }
};

TEST_P(DriverModeTest, OverloadIsCountedAsRejected) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "tiny", "block_interval_ms": 2000,
                "pool_capacity": 20, "smallbank_accounts_per_shard": 20}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  workload::WorkloadProfile profile;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, deployment.at("tiny").smallbank_accounts, 200);
  DriverOptions options;
  options.mode = GetParam();
  options.worker_threads = 2;
  options.drain_timeout = 5s;
  auto& sut = deployment.at("tiny");
  HammerDriver driver(SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
                      util::SteadyClock::shared(), options);
  RunResult result = driver.run(wf, nullptr);
  // Pool of 20 with a 2s epoch: a 200-tx closed-loop burst must overflow.
  EXPECT_GT(result.rejected, 0u);
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.send_failures, 0u);
  if (queue_keeps_unsettled()) {
    EXPECT_GE(result.unmatched, result.rejected);
  } else {
    EXPECT_EQ(result.unmatched, 0u);
    EXPECT_GE(result.failed, result.rejected);
    EXPECT_EQ(result.committed + result.failed, 200u);
  }
}

TEST_P(DriverModeTest, ExhaustedRetriesFailTxsButKeepTheRunAlive) {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 50}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");
  // Build the adapters FIRST (chain.info must succeed), then make every
  // send fail: p = 1.0 with no retry budget exhausts instantly.
  auto worker_channel = sut.connect();
  auto worker =
      std::make_shared<adapters::ChainAdapter>(worker_channel, rpc::ClientConfig{});
  fault::FaultPlan fault_plan;
  fault_plan.conn_reset_p = 1.0;
  auto faults = std::make_shared<fault::FaultInjector>(fault_plan);
  std::static_pointer_cast<rpc::TcpChannel>(worker_channel)->install_fault_injector(faults);

  workload::WorkloadProfile profile;
  profile.seed = 11;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 50);
  DriverOptions options;
  options.mode = GetParam();
  options.worker_threads = 1;
  options.submit_batch_size = 4;
  options.drain_timeout = 2s;
  options.fault_injector = faults;
  HammerDriver driver(SutCluster::single({worker}, sut.make_adapters(1)[0]),
                      util::SteadyClock::shared(), options);
  RunResult result = driver.run(wf, nullptr);  // must not terminate the process

  EXPECT_EQ(result.submitted, 50u);
  EXPECT_EQ(result.send_failures, 50u);
  EXPECT_EQ(result.committed, 0u);
  if (queue_keeps_unsettled()) {
    EXPECT_EQ(result.unmatched, 50u);
    EXPECT_EQ(result.failed, 0u);
  } else {
    // Every tx was written off at send time, so nothing is left unmatched.
    EXPECT_EQ(result.unmatched, 0u);
    EXPECT_EQ(result.failed, 50u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DriverModeTest,
                         ::testing::Values(TrackingMode::kHammer, TrackingMode::kBatchQueue,
                                           TrackingMode::kInteractive));

TEST(DriverTest, BatchedSubmitOverTcpCompletesWorkload) {
  // Full stack over real TCP with submit coalescing: workers fill batches of
  // up to 8 transactions and ship each as one JSON-RPC batch round trip.
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 50}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");
  ASSERT_NE(sut.tcp_server, nullptr);
  workload::WorkloadProfile profile;
  profile.seed = 11;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 300);
  DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 8;
  HammerDriver driver(SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
                      util::SteadyClock::shared(), options);
  RunResult result = driver.run(wf, nullptr);
  EXPECT_EQ(result.submitted, 300u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 200u);
}

TEST(DriverTest, InteractiveModeBatchedSubmitStillMatchesEveryTx) {
  Harness h("neuchain");
  DriverOptions options;
  options.mode = TrackingMode::kInteractive;
  options.worker_threads = 2;
  options.submit_batch_size = 4;
  RunResult result = h.run(options, 80);
  EXPECT_EQ(result.submitted, 80u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_GT(result.committed, 50u);
}

TEST(DriverTest, MidRunConnectionResetsAreRetriedToCompletion) {
  // Full TCP stack with injected connection resets on every worker channel:
  // the retry policy absorbs the breaks, the run finishes with every
  // transaction accounted for, and the fault/retry counters land in the
  // RunResult.
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 50}]
  })");
  Deployment deployment = Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");
  fault::FaultPlan fault_plan;
  fault_plan.seed = 21;
  fault_plan.conn_reset_p = 0.25;
  auto client_faults = std::make_shared<fault::FaultInjector>(fault_plan);

  rpc::ClientConfig adapter_config;
  adapter_config.retry = rpc::RetryPolicy::standard(8);
  adapter_config.retry.initial_backoff = 2ms;

  workload::WorkloadProfile profile;
  profile.seed = 11;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 300);
  DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 4;
  options.fault_injector = client_faults;
  HammerDriver driver(SutCluster::single(sut.make_adapters(2, adapter_config, client_faults),
                                         sut.make_adapters(1)[0]),
                      util::SteadyClock::shared(), options);
  RunResult result = driver.run(wf, nullptr);

  EXPECT_EQ(result.submitted, 300u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_EQ(result.committed + result.failed, 300u);
  EXPECT_GT(result.committed, 200u);
  EXPECT_GT(client_faults->injected(fault::FaultKind::kConnReset), 0u);
  EXPECT_GT(result.retries, 0u);
  // 8 attempts against p = 0.25: the chance of any batch exhausting the
  // policy is ~1e-5 per send, so effectively every break is absorbed.
  EXPECT_EQ(result.send_failures, 0u);
  ASSERT_FALSE(result.faults.is_null());
  EXPECT_GT(result.faults.at("conn_reset").as_int(), 0);
  EXPECT_TRUE(result.to_json().contains("faults"));
}

TEST(DriverTest, PacedRunAchievesTheOfferedRateWithinFivePercent) {
  // The ISSUE 9 acceptance bar: a rate-paced run well under SUT capacity
  // must offer its target within 5%. 200 tps against an in-process neuchain
  // (thousands of tps of headroom) for ~1 s.
  Harness h("neuchain");
  DriverOptions options;
  options.worker_threads = 2;
  options.target_rate = 200.0;
  options.rate_burst = 4.0;  // small burst so the offered window is honest
  RunResult result = h.run(options, 200);
  EXPECT_EQ(result.submitted, 200u);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_DOUBLE_EQ(result.target_rate, 200.0);
  EXPECT_NEAR(result.offered_rate, 200.0, 200.0 * 0.05);
  // Pacing must actually pace: 200 txs at 200 tps cannot finish in under
  // ~0.9 s (a closed-loop burst here takes a few ms).
  EXPECT_GE(result.duration_s, 0.8);
  EXPECT_GT(result.achieved_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.achieved_rate, result.tps);
}

TEST(DriverTest, OpenLoopRunReportsZeroTargetRate) {
  Harness h("neuchain");
  DriverOptions options;
  options.worker_threads = 2;
  RunResult result = h.run(options, 100);
  EXPECT_DOUBLE_EQ(result.target_rate, 0.0);
  // The pacing gate still accounts sends in open loop.
  EXPECT_GT(result.offered_rate, 0.0);
}

TEST(DriverTest, SharedLoadControllerIsRetargetableMidRun) {
  // A caller-owned controller (the control plane's set_rate path): start a
  // paced run at a crawl, retarget it to effectively-open mid-flight, and
  // the run must finish promptly at the new rate.
  Harness h("neuchain");
  LoadOptions load_options;
  load_options.rate = 20.0;  // 400 txs at 20 tps would take ~20 s
  auto load = std::make_shared<LoadController>(load_options, util::SteadyClock::shared());
  std::thread retargeter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    load->set_rate(100000.0);
  });
  DriverOptions options;
  options.worker_threads = 2;
  options.load = load;
  auto start = std::chrono::steady_clock::now();
  RunResult result = h.run(options, 400);
  retargeter.join();
  EXPECT_EQ(result.submitted, 400u);
  EXPECT_EQ(result.unmatched, 0u);
  // ~6 txs leave in the slow 300 ms prefix; the rest fly. Well under the
  // 20 s the original rate would have needed.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_DOUBLE_EQ(result.target_rate, 100000.0);
}

TEST(DriverOptionsFromJsonTest, ParsesEveryKnob) {
  std::size_t channels = 0;
  DriverOptions options = driver_options_from_json(json::Value::parse(R"({
    "worker_threads": 3, "submit_batch_size": 8, "routing": "shard",
    "drain_timeout_ms": 0, "poll_interval_ms": 5, "task_shards": 4,
    "pipelined_signing": false, "trace_every_n": 10, "channels_per_target": 1,
    "target_rate": 250.5, "rate_burst": 4, "load_seed": 9})"),
                                                   &channels);
  EXPECT_EQ(options.worker_threads, 3u);
  EXPECT_EQ(options.submit_batch_size, 8u);
  EXPECT_EQ(options.routing, RoutingKind::kShardAffine);
  EXPECT_EQ(options.drain_timeout, 0ms);
  EXPECT_EQ(options.poll_interval, 5ms);
  EXPECT_EQ(options.task_processor.shards, 4u);
  EXPECT_FALSE(options.pipelined_signing);
  EXPECT_EQ(options.trace_every_n, 10u);
  EXPECT_EQ(channels, 1u);
  EXPECT_DOUBLE_EQ(options.target_rate, 250.5);
  EXPECT_DOUBLE_EQ(options.rate_burst, 4.0);
  EXPECT_EQ(options.load_seed, 9u);
}

TEST(DriverOptionsFromJsonTest, RejectsOutOfRangeIntegersByKey) {
  // Each of these once wrapped to a huge size_t and crashed the worker when
  // threads or shards were allocated.
  const std::pair<const char*, int> bad[] = {
      {"worker_threads", -1},     {"worker_threads", 0},      {"submit_batch_size", -2},
      {"submit_batch_size", 0},   {"task_shards", -1},        {"task_shards", 0},
      {"channels_per_target", -1}, {"channels_per_target", 0}, {"poll_interval_ms", 0},
      {"drain_timeout_ms", -1},   {"trace_every_n", -1}};
  for (const auto& [key, value] : bad) {
    json::Object plan;
    plan[key] = value;
    try {
      driver_options_from_json(json::Value(std::move(plan)));
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("driver.") + key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(driver_options_from_json(json::Value::parse(R"({"target_rate": -1})")),
               ParseError);
  EXPECT_THROW(driver_options_from_json(json::Value::parse(R"({"worker_thread": 2})")),
               ParseError);
}

TEST(DriverTest, ClientCpuModelLimitsThroughput) {
  Harness h("neuchain");
  // 2 modeled vCPUs, 5ms of client work per tx -> ceiling ~400 tps.
  DriverOptions options;
  options.worker_threads = 4;
  options.client_vcpus = 2;
  options.per_tx_client_us = 5000;
  options.switch_penalty_us = 500;
  RunResult result = h.run(options, 100);
  EXPECT_EQ(result.unmatched, 0u);
  EXPECT_LT(result.tps, 500.0);
}

}  // namespace
}  // namespace hammer::core
