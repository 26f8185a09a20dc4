// Multi-chain comparison: the Fig. 6 story as an application.
//
// Deploys all four supported architectures side by side — including the
// sharded Meepo that no baseline framework can evaluate — and reports each
// one's throughput and latency under the same SmallBank workload through
// the same generic RPC adapter interface.
#include <cstdio>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "report/ascii_chart.hpp"

using namespace hammer;

int main() {
  json::Value plan = json::Value::parse(R"({
    "chains": [
      {"kind": "ethereum", "name": "ethereum", "block_interval_ms": 500,
       "hash_rate": 400000, "max_block_txs": 100, "smallbank_accounts_per_shard": 500},
      {"kind": "fabric", "name": "fabric", "block_interval_ms": 100,
       "commit_cost_us": 2000, "smallbank_accounts_per_shard": 500},
      {"kind": "neuchain", "name": "neuchain", "block_interval_ms": 50,
       "max_block_txs": 2000, "smallbank_accounts_per_shard": 500},
      {"kind": "meepo", "name": "meepo", "num_shards": 2, "block_interval_ms": 80,
       "commit_cost_us": 700, "smallbank_accounts_per_shard": 500}
    ]
  })");
  core::Deployment deployment = core::Deployment::deploy(plan, util::SteadyClock::shared());

  std::vector<std::pair<std::string, double>> tps_bars;
  for (const std::string& name : deployment.names()) {
    core::DeployedChain& sut = deployment.at(name);
    workload::WorkloadProfile profile;
    std::size_t txs = name == "ethereum" ? 150 : 3000;
    workload::WorkloadFile wf =
        workload::generate_workload(profile, sut.smallbank_accounts, txs);
    core::DriverOptions options;
    options.worker_threads = 2;
    options.drain_timeout = std::chrono::seconds(30);
    core::HammerDriver driver(
        core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), options);
    core::RunResult result = driver.run(wf, nullptr);
    std::printf("%-9s (%u shard%s): tps=%9.1f latency=%8.1fms committed=%llu/%zu\n",
                name.c_str(), sut.chain->num_shards(), sut.chain->num_shards() > 1 ? "s" : "",
                result.tps, result.latency.mean() / 1000.0,
                static_cast<unsigned long long>(result.committed), txs);
    tps_bars.emplace_back(name, result.tps);
  }
  std::printf("\n%s", report::bar_chart("SmallBank throughput by architecture", tps_bars).c_str());
  return 0;
}
