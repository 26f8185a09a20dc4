// Shared helpers for the per-figure bench binaries.
//
// Every bench prints the measured rows/series for its paper figure or
// table, saves a CSV artifact under bench_results/, and states the paper's
// reported shape next to the measurement so drift is visible in the log.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "report/ascii_chart.hpp"
#include "report/csv.hpp"
#include "workload/workload_file.hpp"

namespace hammer::bench {

inline std::string results_dir() {
  std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline void save_csv(const report::CsvWriter& csv, const std::string& name) {
  std::string path = results_dir() + "/" + name;
  csv.save(path);
  std::printf("[artifact] %s\n", path.c_str());
}

// Scale knob: HAMMER_BENCH_SCALE=full runs paper-sized volumes; the default
// "quick" keeps every bench a few tens of seconds on one core.
inline bool full_scale() {
  const char* env = std::getenv("HAMMER_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

// Chain deployment specs used across benches. Block intervals are scaled
// down ~20x from the real systems (EXPERIMENTS.md, timing model) so runs
// finish in seconds; commit costs model the paper's 2-vCPU cluster nodes.
inline json::Value chain_spec(const std::string& kind) {
  json::Object spec;
  spec["kind"] = kind;
  spec["name"] = kind + "-sut";
  spec["smallbank_accounts_per_shard"] = 5000;  // paper: 5,000 per shard
  spec["initial_checking"] = 1000000;
  spec["initial_savings"] = 1000000;
  if (kind == "ethereum") {
    spec["block_interval_ms"] = 750;  // stands in for ~15 s PoW blocks
    spec["hash_rate"] = 300000;
    spec["max_block_txs"] = 120;      // gas-limit stand-in
    spec["commit_cost_us"] = 300;
  } else if (kind == "fabric") {
    spec["block_interval_ms"] = 100;  // BatchTimeout
    spec["max_block_txs"] = 100;      // BatchSize
    spec["commit_cost_us"] = 3500;    // remote endorsement+validate+disk
  } else if (kind == "neuchain") {
    spec["block_interval_ms"] = 50;   // epoch
    spec["max_block_txs"] = 2000;
    spec["commit_cost_us"] = 0;
  } else if (kind == "meepo") {
    spec["num_shards"] = 2;           // paper: two shards
    spec["block_interval_ms"] = 80;
    spec["max_block_txs"] = 300;
    spec["commit_cost_us"] = 900;
  }
  return json::Value(std::move(spec));
}

inline workload::WorkloadFile smallbank_workload(const core::DeployedChain& sut,
                                                 std::size_t count, std::uint64_t seed = 11) {
  workload::WorkloadProfile profile;
  profile.seed = seed;
  return workload::generate_workload(profile, sut.smallbank_accounts, count);
}

// Closed-loop saturation probe against one chain.
inline core::RunResult probe_chain(const core::DeployedChain& sut, std::size_t txs,
                                   core::DriverOptions options = {}) {
  core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                                     sut.make_adapters(1)[0]),
                            util::SteadyClock::shared(), options);
  return driver.run(smallbank_workload(sut, txs), nullptr);
}

}  // namespace hammer::bench
