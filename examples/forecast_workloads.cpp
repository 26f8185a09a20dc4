// Temporal-workload evaluation — the full §IV story, end to end:
//
//   1. take a "real" application trace (NFT minting, hourly counts)
//   2. train the TCN+BiGRU+attention model on it
//   3. EXTEND the sequence autoregressively (the paper's motivation: real
//      control sequences are too short for large-scale testing)
//   4. replay the extended sequence as an open-loop workload against a SUT,
//      compressing one "hour" into one second of wall time
//   5. report how the SUT coped with the bursty, realistic arrival process
#include <cstdio>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "forecast/train.hpp"
#include "report/ascii_chart.hpp"

using namespace hammer;
using namespace hammer::forecast;

int main() {
  // 1-2. Learn the NFT trace's temporal structure.
  std::printf("training the control-sequence model on the NFT trace...\n");
  std::vector<double> trace = generate_trace(TraceKind::kNfts, 500, 7);
  ModelConfig config;
  config.window = 48;
  config.channels = 16;
  auto model = make_hammer_model(config);
  TrainOptions train_options;
  train_options.epochs = 20;
  train_options.lr = 2e-3;
  Normalizer normalizer = Normalizer::fit(trace, trace.size());
  WindowDataset dataset = WindowDataset::build(trace, config.window, normalizer, 0, trace.size());
  train_model(*model, dataset, train_options);

  // 3. Manufacture 30 future "hours" the real trace never had.
  std::vector<double> extension = extend_series(*model, trace, config.window, normalizer, 30);
  std::printf("%s", report::line_chart("generated future load (tx per hour)",
                                       {{"generated", extension}},
                                       {.width = 60, .height = 8, .x_label = "future hours"})
                        .c_str());

  // 4. Replay: 1 generated hour -> 1 wall-clock second, scaled to a peak
  //    the demo SUT handles comfortably.
  workload::ControlSequence sequence =
      to_control_sequence(extension, std::chrono::seconds(1)).scaled_to_peak(1500.0);
  auto total_txs = static_cast<std::size_t>(sequence.total());
  std::printf("replaying %zu transactions over %zu seconds (peak %.0f tx/s)\n", total_txs,
              sequence.num_slices(), sequence.peak());

  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 50,
                "max_block_txs": 3000, "smallbank_accounts_per_shard": 1000}]
  })");
  core::Deployment deployment = core::Deployment::deploy(plan, util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at("sut");
  workload::WorkloadProfile profile;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, total_txs);

  core::DriverOptions options;
  options.worker_threads = 2;
  core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
                            util::SteadyClock::shared(), options);
  core::RunResult result = driver.run(wf, &sequence);

  // 5. The SUT's view of a realistic, bursty day.
  std::printf("\n%s\n", result.summary().c_str());
  std::printf("p99 latency under bursts: %.1fms (vs p50 %.1fms)\n",
              static_cast<double>(result.latency.percentile(99)) / 1000.0,
              static_cast<double>(result.latency.percentile(50)) / 1000.0);
  return 0;
}
