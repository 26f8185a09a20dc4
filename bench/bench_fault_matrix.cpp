// Fault matrix bench — throughput and latency under injected failures.
//
// Runs the same closed-loop smallbank burst against a TCP-deployed neuchain
// SUT across a matrix of fault scenarios: a clean baseline, the retry
// policy armed with zero faults (its overhead), client connection resets,
// SUT-side transient rejections, dropped server responses under a tight
// per-call deadline, and an everything-at-once storm. Each row reports how
// many faults fired, how many retries the policy spent riding them out, and
// what was left of throughput/latency — the degradation curve a resilience
// evaluation reads off.
//
// Artifact: bench_results/fault_matrix.csv
#include "bench_util.hpp"

using namespace hammer;

namespace {

struct Scenario {
  std::string name;
  fault::FaultPlan client;  // installed on every worker channel
  fault::FaultPlan sut;     // installed on the chain + its TcpServer
  rpc::RetryPolicy retry;
  std::chrono::milliseconds deadline{0};  // 0 = channel default
};

core::Deployment deploy_sut(const fault::FaultPlan& sut_faults) {
  json::Object spec;
  spec["kind"] = "neuchain";
  spec["name"] = "sut";
  spec["transport"] = "tcp";
  spec["block_interval_ms"] = 25;
  spec["max_block_txs"] = 4000;
  spec["pool_capacity"] = 200000;
  spec["smallbank_accounts_per_shard"] = 1000;
  spec["initial_checking"] = 1000000;
  spec["initial_savings"] = 1000000;
  if (sut_faults.enabled()) spec["faults"] = sut_faults.to_json();
  json::Object plan;
  plan["chains"] = json::Value(json::Array{json::Value(std::move(spec))});
  return core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
}

}  // namespace

int main() {
  const std::size_t txs = bench::full_scale() ? 20000 : 3000;

  rpc::RetryPolicy no_retry;
  rpc::RetryPolicy armed = rpc::RetryPolicy::standard(6);
  armed.initial_backoff = std::chrono::milliseconds(2);
  rpc::RetryPolicy armed_rejects = armed;
  armed_rejects.on_rejected = true;

  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline", {}, {}, no_retry, {}});
  scenarios.push_back({"retry_no_faults", {}, {}, armed, {}});
  {
    Scenario s{"conn_reset", {}, {}, armed, {}};
    s.client.seed = 101;
    s.client.conn_reset_p = 0.02;
    scenarios.push_back(s);
  }
  {
    Scenario s{"submit_reject", {}, {}, armed_rejects, {}};
    s.sut.seed = 102;
    s.sut.submit_reject_p = 0.05;
    scenarios.push_back(s);
  }
  {
    // Dropped responses only surface as timeouts, so give the calls a tight
    // deadline; the retry resubmits and reconciles the in-doubt entries.
    Scenario s{"drop_response", {}, {}, armed, std::chrono::milliseconds(250)};
    s.sut.seed = 103;
    s.sut.drop_response_p = 0.01;
    scenarios.push_back(s);
  }
  {
    Scenario s{"storm", {}, {}, armed_rejects, std::chrono::milliseconds(500)};
    s.client.seed = 104;
    s.client.conn_reset_p = 0.02;
    s.client.client_latency_p = 0.05;
    s.client.client_latency_us = 2000;
    s.sut.seed = 105;
    s.sut.submit_reject_p = 0.03;
    s.sut.block_stall_p = 0.05;
    s.sut.block_stall_ms = 50;
    scenarios.push_back(s);
  }

  report::CsvWriter csv({"scenario", "injected", "retries", "submitted", "committed", "failed",
                         "unmatched", "tps", "p50_ms"});
  std::printf("== Fault matrix: %zu-tx closed-loop burst per scenario ==\n", txs);
  for (const Scenario& scenario : scenarios) {
    core::Deployment deployment = deploy_sut(scenario.sut);
    auto& sut = deployment.at("sut");

    std::shared_ptr<fault::FaultInjector> client_faults;
    if (scenario.client.enabled()) {
      client_faults = std::make_shared<fault::FaultInjector>(scenario.client);
    }
    rpc::ClientConfig adapter_config;
    adapter_config.retry = scenario.retry;
    adapter_config.call.deadline = scenario.deadline;

    core::DriverOptions options;
    options.worker_threads = 2;
    options.submit_batch_size = 16;
    options.fault_injector = client_faults ? client_faults : sut.fault_injector;
    // The poll adapter gets the same policy (but a clean channel): a dropped
    // receipts/height reply must not stall the poller for a full default
    // timeout with no second attempt.
    core::HammerDriver driver(
        core::SutCluster::single(
            sut.make_adapters(options.worker_threads, adapter_config, client_faults),
            sut.make_adapters(1, adapter_config)[0]),
        util::SteadyClock::shared(), options);
    core::RunResult result = driver.run(bench::smallbank_workload(sut, txs), nullptr);

    std::uint64_t injected = 0;
    if (client_faults) injected += client_faults->total_injected();
    if (sut.fault_injector) injected += sut.fault_injector->total_injected();
    double p50_ms = static_cast<double>(result.latency.percentile(50)) / 1000.0;
    std::printf(
        "  %-16s injected=%-6llu retries=%-6llu committed=%llu/%llu failed=%llu "
        "unmatched=%llu  %8.0f tps  p50=%.2fms\n",
        scenario.name.c_str(), static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(result.retries),
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(result.submitted),
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(result.unmatched), result.tps, p50_ms);
    csv.add_row({scenario.name, std::to_string(injected), std::to_string(result.retries),
                 std::to_string(result.submitted), std::to_string(result.committed),
                 std::to_string(result.failed), std::to_string(result.unmatched),
                 std::to_string(result.tps), std::to_string(p50_ms)});
  }
  std::printf("(expected shape: baseline ~= retry_no_faults; fault rows trade tps/p50 for "
              "completeness — committed+failed stays the workload size)\n");

  bench::save_csv(csv, "fault_matrix.csv");
  return 0;
}
