// Fig. 6 — Throughput and latency of different blockchains under SmallBank.
//
// Paper (Aliyun 5-node cluster): Ethereum 18.6 TPS / 4.8 s latency (worst),
// Fabric and Meepo in between, Neuchain 8688 TPS with low latency (best).
// Expected shape here: Neuchain >> Meepo > Fabric >> Ethereum on TPS, and
// Ethereum worst on latency. Absolute numbers differ (simulators with
// ~20x-scaled block intervals on one core; see EXPERIMENTS.md).
#include "bench_util.hpp"

using namespace hammer;

int main() {
  std::printf("=== Fig. 6: peak TPS & latency across blockchains (SmallBank) ===\n");
  bool full = bench::full_scale();

  struct Row {
    std::string kind;
    std::size_t txs;
  };
  std::vector<Row> rows = {{"ethereum", full ? 600u : 250u},
                           {"fabric", full ? 8000u : 2500u},
                           {"neuchain", full ? 60000u : 20000u},
                           {"meepo", full ? 12000u : 4000u}};

  report::CsvWriter csv({"chain", "committed", "failed", "rejected", "tps", "latency_mean_ms",
                         "latency_p50_ms", "latency_p99_ms"});
  std::vector<std::pair<std::string, double>> tps_bars;
  std::vector<std::pair<std::string, double>> latency_bars;

  for (const Row& row : rows) {
    json::Object plan;
    plan["chains"] = json::Value(json::Array{bench::chain_spec(row.kind)});
    core::Deployment deployment =
        core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
    core::DeployedChain& sut = deployment.at(row.kind + "-sut");

    core::DriverOptions options;
    options.worker_threads = 2;
    options.drain_timeout = std::chrono::seconds(row.kind == "ethereum" ? 40 : 25);
    core::RunResult result = bench::probe_chain(sut, row.txs, options);

    // Latency is measured at ~60% of the measured peak (open loop) so
    // closed-loop queueing doesn't swamp the chain's intrinsic confirm
    // time — saturation latency is pure backlog on every chain.
    double latency_rate = std::max(result.tps * 0.6, 5.0);
    auto latency_txs = static_cast<std::size_t>(std::min(latency_rate * 8.0, 20000.0));
    workload::ControlSequence rate = workload::ControlSequence::constant(
        latency_rate,
        std::chrono::milliseconds(
            static_cast<std::int64_t>(static_cast<double>(latency_txs) / latency_rate * 1000)),
        std::chrono::milliseconds(200));
    core::HammerDriver latency_driver(
        core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), options);
    core::RunResult latency_run =
        latency_driver.run(bench::smallbank_workload(sut, latency_txs, 77), &rate);

    double mean_ms = latency_run.latency.mean() / 1000.0;
    double p50_ms = static_cast<double>(latency_run.latency.percentile(50)) / 1000.0;
    double p99_ms = static_cast<double>(latency_run.latency.percentile(99)) / 1000.0;
    std::printf("%-9s tps=%9.1f  latency mean=%8.1fms p50=%8.1fms p99=%8.1fms  "
                "(committed=%llu failed=%llu rejected=%llu unmatched=%llu)\n",
                row.kind.c_str(), result.tps, mean_ms, p50_ms, p99_ms,
                static_cast<unsigned long long>(result.committed),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.rejected),
                static_cast<unsigned long long>(result.unmatched));
    csv.add_row({row.kind, std::to_string(result.committed), std::to_string(result.failed),
                 std::to_string(result.rejected), report::format_double(result.tps),
                 report::format_double(mean_ms), report::format_double(p50_ms),
                 report::format_double(p99_ms)});
    tps_bars.emplace_back(row.kind, result.tps);
    latency_bars.emplace_back(row.kind, mean_ms);
  }

  std::printf("%s", report::bar_chart("throughput (tx/s)", tps_bars).c_str());
  std::printf("%s", report::bar_chart("mean latency (ms)", latency_bars).c_str());
  bench::save_csv(csv, "fig6_chains.csv");

  std::printf("\npaper shape: Neuchain (8688 TPS) >> Meepo > Fabric >> Ethereum (18.6 TPS);"
              " Ethereum worst latency (4.8 s)\n");
  bool tps_order = tps_bars[2].second > tps_bars[3].second &&
                   tps_bars[3].second > tps_bars[1].second &&
                   tps_bars[1].second > tps_bars[0].second;
  bool latency_order = latency_bars[0].second > latency_bars[1].second &&
                       latency_bars[0].second > latency_bars[2].second;
  std::printf("measured   : tps order %s, ethereum-worst-latency %s\n",
              tps_order ? "MATCH" : "MISMATCH", latency_order ? "MATCH" : "MISMATCH");
  return 0;
}
