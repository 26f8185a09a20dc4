// Fig. 7 — Peak performance reported by different evaluation frameworks.
//
// Paper: on Ethereum all three frameworks report ~the same (the chain is
// the bottleneck); on Fabric, Hammer reports 239 TPS vs Caliper's 176 and
// Blockbench lower still — the baselines' own tracking overhead (per-tx
// event listening / O(n·m) queue matching) suppresses measured throughput
// under load. Expected shape: Hammer >= both baselines on Fabric; all
// roughly equal on Ethereum.
#include <algorithm>
#include <thread>

#include "bench_util.hpp"

using namespace hammer;

namespace {

core::RunResult run_framework(const core::DeployedChain& sut, core::TrackingMode mode,
                              std::size_t txs, bool slow_chain) {
  core::DriverOptions options;
  options.mode = mode;
  options.worker_threads = 2;
  options.drain_timeout = std::chrono::seconds(slow_chain ? 40 : 25);
  if (mode == core::TrackingMode::kBatchQueue) {
    // Blockbench's batch poller is coarser than Hammer's.
    options.poll_interval = std::chrono::milliseconds(100);
  }
  if (slow_chain) {
    // No framework polls a seconds-per-block chain every 2 ms; on this
    // single-core host an aggressive listener would starve the PoW miner
    // itself (SUT and framework share the core — see EXPERIMENTS.md).
    options.interactive_poll = std::chrono::milliseconds(100);
  }
  core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                                     sut.make_adapters(1)[0]),
                            util::SteadyClock::shared(), options);
  return driver.run(bench::smallbank_workload(sut, txs), nullptr);
}

}  // namespace

int main() {
  std::printf("=== Fig. 7: peak TPS as reported by Hammer / Caliper-style / Blockbench-style ===\n");
  bool full = bench::full_scale();

  struct Framework {
    const char* name;
    core::TrackingMode mode;
  };
  const Framework frameworks[] = {
      {"Hammer", core::TrackingMode::kHammer},
      {"Caliper (interactive)", core::TrackingMode::kInteractive},
      {"Blockbench (batch O(nm))", core::TrackingMode::kBatchQueue},
  };

  report::CsvWriter csv({"chain", "framework", "tps", "latency_mean_ms", "committed"});
  for (const std::string chain : {"ethereum", "fabric"}) {
    bool slow = chain == "ethereum";
    std::size_t txs = slow ? (full ? 500u : 300u) : (full ? 20000u : 8000u);
    std::printf("-- %s --\n", chain.c_str());
    std::vector<std::pair<std::string, double>> bars;
    // PoW block times are high-variance; repeat each framework run and
    // take the median so a lucky nonce doesn't decide the comparison.
    std::size_t reps = slow ? 3 : (full ? 5 : 3);
    for (const Framework& fw : frameworks) {
      std::vector<double> tps_samples;
      core::RunResult last_result;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        // Fresh deployment per run so earlier runs cannot warm pools.
        // Unlike Fig. 6 (which models the remote cluster's commit cost as
        // slept time), Fig. 7's Fabric runs CPU-bound so the frameworks'
        // own tracking overhead competes with driving the load — the
        // effect the paper measures under heavy request load.
        json::Value spec = bench::chain_spec(chain);
        if (chain == "fabric") {
          spec.as_object()["commit_cost_us"] = 0;
          spec.as_object()["block_interval_ms"] = 50;
          spec.as_object()["max_block_txs"] = 1000;
          spec.as_object()["pool_capacity"] = 100000;
        } else {
          // Shorter, smaller PoW blocks: more blocks per run, so the
          // exponential block-time noise averages out within a few reps.
          spec.as_object()["block_interval_ms"] = 400;
          spec.as_object()["max_block_txs"] = 50;
        }
        json::Object plan;
        plan["chains"] = json::Value(json::Array{std::move(spec)});
        core::Deployment deployment =
            core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
        core::DeployedChain& sut = deployment.at(chain + "-sut");
        if (slow) {
          // Let the PoW difficulty retarget settle before measuring.
          while (sut.chain->height(0) < 2) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }
        last_result = run_framework(sut, fw.mode, txs, slow);
        tps_samples.push_back(last_result.tps);
      }
      std::sort(tps_samples.begin(), tps_samples.end());
      double median_tps = tps_samples[tps_samples.size() / 2];
      std::printf("  %-26s tps=%9.1f (median of %zu) latency=%8.1fms committed=%llu\n",
                  fw.name, median_tps, reps, last_result.latency.mean() / 1000.0,
                  static_cast<unsigned long long>(last_result.committed));
      csv.add_row({chain, fw.name, report::format_double(median_tps),
                   report::format_double(last_result.latency.mean() / 1000.0),
                   std::to_string(last_result.committed)});
      bars.emplace_back(fw.name, median_tps);
    }
    std::printf("%s", report::bar_chart(chain + ": reported TPS by framework", bars).c_str());
    if (chain == "fabric") {
      bool match = bars[0].second >= bars[1].second && bars[0].second >= bars[2].second;
      std::printf("paper shape: Hammer (239) > Caliper (176) > Blockbench on Fabric -> %s\n",
                  match ? "MATCH" : "MISMATCH");
    } else {
      double hi = std::max({bars[0].second, bars[1].second, bars[2].second});
      double lo = std::min({bars[0].second, bars[1].second, bars[2].second});
      std::printf("paper shape: frameworks ~equal on Ethereum (chain-bound) -> %s "
                  "(spread %.0f%%)\n",
                  lo > 0.5 * hi ? "MATCH" : "MISMATCH", hi > 0 ? (hi - lo) / hi * 100 : 0.0);
    }
  }
  bench::save_csv(csv, "fig7_frameworks.csv");
  return 0;
}
