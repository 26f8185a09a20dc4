// Saturation search smoke: the knee search must be reproducible. A SUT
// with a hard block-production ceiling (35 txs / 50 ms = 700 tps, slept,
// not burned — so the ceiling holds under sanitizers too) is probed by the
// same seeded SaturationSearch TWICE from scratch; both searches must
// converge to the SAME grid knee.
//
// The grid (100, 300, 900; growth 3) keeps every decision far from the
// saturation boundary: 300 offered is 43% of capacity (sustains with a
// >2x margin), 900 offered is 129% of capacity (the achieved/offered ratio
// lands at ~0.78, well under the 0.9 sustain floor). Even if a sanitizer
// slows the driving side enough that 900 can't be OFFERED, the probe still
// saturates via the offered/target criterion — the knee stays 300 either
// way.
//
// Run under -DHAMMER_SANITIZE=thread: the pacing gate (LoadController) is
// hit by every submit worker concurrently by construction.
#include <cstdio>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "core/saturation.hpp"

namespace {

using namespace hammer;

core::SaturationResult run_search() {
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut",
                "block_interval_ms": 50, "max_block_txs": 35,
                "commit_cost_us": 0, "verify_signatures": false,
                "pool_capacity": 100000,
                "smallbank_accounts_per_shard": 200,
                "initial_checking": 1000000, "initial_savings": 1000000}]
  })");
  core::Deployment deployment = core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");

  core::SaturationOptions options;
  options.start_rate = 100.0;
  options.growth = 3.0;
  options.max_rate = 900.0;
  options.knee_factor = 5.0;
  options.sustain_fraction = 0.9;
  options.seed = 7;

  core::SaturationSearch search(options);
  return search.run([&](double rate, std::uint64_t seed) {
    // ~2 seconds of offered load per probe, so the block-tail latency at
    // the end of the run stays a small fraction of the envelope.
    auto txs = static_cast<std::size_t>(rate * 2.0);
    workload::WorkloadProfile profile;
    profile.seed = seed;
    profile.op_mix = {{"send_payment", 1.0}};  // order-independent on rich accounts
    workload::WorkloadFile wf = workload::generate_workload(profile, sut.smallbank_accounts, txs);
    core::DriverOptions driver_options;
    driver_options.worker_threads = 2;
    driver_options.submit_batch_size = 8;
    driver_options.target_rate = rate;
    core::HammerDriver driver(
        core::SutCluster::single(sut.make_adapters(driver_options.worker_threads),
                                 sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), driver_options);
    return driver.run(wf, nullptr);
  });
}

}  // namespace

int main() {
  core::SaturationResult first = run_search();
  std::printf("search 1: knee=%.1f tps, at_knee=%.1f, base_p99=%.2fms, %zu probes\n",
              first.max_sustainable_tps, first.achieved_at_knee, first.base_p99_ms,
              first.probes.size());
  core::SaturationResult second = run_search();
  std::printf("search 2: knee=%.1f tps, at_knee=%.1f, base_p99=%.2fms, %zu probes\n",
              second.max_sustainable_tps, second.achieved_at_knee, second.base_p99_ms,
              second.probes.size());

  if (!first.found_knee || !second.found_knee) {
    std::fprintf(stderr, "FAIL: the 700-tps ceiling was never saturated\n");
    return 1;
  }
  if (first.max_sustainable_tps <= 0.0) {
    std::fprintf(stderr, "FAIL: even the base rate saturated a SUT with 7x headroom\n");
    return 1;
  }
  if (first.max_sustainable_tps != second.max_sustainable_tps) {
    std::fprintf(stderr, "FAIL: same seed, different knees (%.1f vs %.1f)\n",
                 first.max_sustainable_tps, second.max_sustainable_tps);
    return 1;
  }
  if (first.probes.size() != second.probes.size()) {
    std::fprintf(stderr, "FAIL: same seed, different probe sequences (%zu vs %zu)\n",
                 first.probes.size(), second.probes.size());
    return 1;
  }
  std::printf("saturation: two seeded searches converged to the same %.0f-tps knee\n",
              first.max_sustainable_tps);
  return 0;
}
