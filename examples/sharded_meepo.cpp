// Sharded-blockchain evaluation — the capability the paper claims first:
// "To the best of our knowledge, we are the first evaluation framework
// that is able to support both non-sharding and sharding architectures."
//
// Deploys a two-shard Meepo, drives SmallBank payments that cross shard
// boundaries, shows the per-shard ledgers the driver polls independently,
// and audits cross-shard money conservation through the adapter.
#include <cstdio>
#include <thread>

#include "chain/meepo_sim.hpp"
#include "core/deployment.hpp"
#include "core/driver.hpp"

using namespace hammer;

int main() {
  json::Value plan = json::Value::parse(R"({
    "chains": [{
      "kind": "meepo", "name": "meepo", "num_shards": 2,
      "block_interval_ms": 60, "smallbank_accounts_per_shard": 400,
      "initial_checking": 10000, "initial_savings": 10000
    }]
  })");
  core::Deployment deployment = core::Deployment::deploy(plan, util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at("meepo");

  // A transfer-only workload maximizes cross-shard traffic (~50% of pairs
  // straddle the two shards).
  workload::WorkloadProfile profile;
  profile.op_mix = {{"send_payment", 1.0}};
  profile.amount_min = 1;
  profile.amount_max = 20;
  workload::WorkloadFile wf = workload::generate_workload(profile, sut.smallbank_accounts, 4000);

  core::DriverOptions options;
  options.worker_threads = 2;
  core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
                            util::SteadyClock::shared(), options);
  core::RunResult result = driver.run(wf, nullptr);
  std::printf("run: %s\n\n", result.summary().c_str());

  // Cross-shard credits land at the destination shard's NEXT epoch; give
  // in-flight relays a few epochs to settle before auditing.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Per-shard view through the same adapter the driver used.
  auto adapter = sut.make_adapters(1)[0];
  for (std::uint32_t shard = 0; shard < adapter->info().shards; ++shard) {
    std::printf("shard %u: height=%llu state_digest=%.16s...\n", shard,
                static_cast<unsigned long long>(adapter->height(shard)),
                adapter->state_digest(shard).c_str());
  }
  auto* meepo = dynamic_cast<chain::MeepoSim*>(sut.chain.get());
  std::printf("cross-shard transfers relayed: %llu\n",
              static_cast<unsigned long long>(meepo->cross_shard_count()));

  // Audit: total balance across every account on both shards is conserved
  // (each genesis account starts with 10,000 checking).
  std::int64_t total = 0;
  for (const std::string& account : sut.smallbank_accounts) {
    std::uint32_t shard = sut.chain->shard_for_sender(account);
    total += adapter->query(shard, "smallbank", "query", json::object({{"customer", account}}))
                 .at("checking")
                 .as_int();
  }
  auto expected = static_cast<std::int64_t>(sut.smallbank_accounts.size()) * 10000;
  std::printf("conservation audit: total checking=%lld expected=%lld -> %s\n",
              static_cast<long long>(total), static_cast<long long>(expected),
              total == expected ? "PASS" : "FAIL");
  return total == expected ? 0 : 1;
}
