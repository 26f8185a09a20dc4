// Live-scrape smoke check: deploys a neuchain SUT behind a real TcpServer,
// drives a short closed-loop burst on a background thread, and scrapes
// telemetry.metrics over the SAME TCP endpoint twice while the run is in
// flight. Exits nonzero if the exposition fails to parse, the expected
// driver/rpc/task-processor series are missing, or any counter moves
// backwards between scrapes. Runs under ctest (smoke.telemetry_scrape),
// including HAMMER_SANITIZE=thread builds — this is the test that pits
// hot-path metric writers against a concurrent scraper.
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "telemetry/endpoint.hpp"
#include "telemetry/exposition.hpp"

int main() {
  using namespace hammer;
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 200}]
  })");
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");

  workload::WorkloadProfile profile;
  profile.seed = 11;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 1500);

  core::DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 8;
  options.trace_every_n = 4;

  core::RunResult result;
  std::thread run([&] {
    result = core::run_peak_probe(
        core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                 sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), options, wf);
  });

  // Scrape mid-run over the SUT's own TCP port (the per-node exporter).
  auto scrape = [&sut](std::map<std::string, double>& values) -> bool {
    std::string text = telemetry::scrape_metrics(*sut.connect());
    std::string error;
    if (!telemetry::parse_prometheus(text, &values, &error)) {
      std::fprintf(stderr, "FAIL: exposition does not parse: %s\n", error.c_str());
      return false;
    }
    return true;
  };

  std::map<std::string, double> first;
  std::map<std::string, double> second;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  bool ok = scrape(first);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ok = ok && scrape(second);
  run.join();
  if (!ok) return 1;

  // The scrape must carry series from every instrumented layer.
  for (const char* key :
       {"hammer_driver_submitted_total", "hammer_driver_inflight",
        "hammer_rpc_server_requests_total", "hammer_taskproc_registered_total",
        "hammer_chain_blocks_sealed_total", "hammer_driver_submit_us_count"}) {
    if (second.count(key) == 0) {
      std::fprintf(stderr, "FAIL: scrape missing series %s\n", key);
      return 1;
    }
  }

  // Counters must be monotonic between the two mid-run scrapes.
  for (const auto& [key, value] : first) {
    if (key.find("_total") == std::string::npos &&
        key.find("_count") == std::string::npos && key.find("_sum") == std::string::npos &&
        key.find("_bucket") == std::string::npos) {
      continue;  // gauges and source samples may move either way
    }
    auto it = second.find(key);
    if (it != second.end() && it->second < value) {
      std::fprintf(stderr, "FAIL: counter %s moved backwards (%f -> %f)\n", key.c_str(),
                   value, it->second);
      return 1;
    }
  }

  std::printf("telemetry scrape: %zu series, submitted=%.0f (mid-run) -> %llu (final), "
              "stages=%s\n",
              second.size(), second["hammer_driver_submitted_total"],
              static_cast<unsigned long long>(result.submitted),
              result.stages.is_null() ? "missing" : "present");
  if (result.submitted != 1500 || result.unmatched != 0) {
    std::fprintf(stderr, "FAIL: run lost transactions while being scraped\n");
    return 1;
  }
  if (result.stages.is_null() || result.stages.at("include").at("count").as_int() == 0) {
    std::fprintf(stderr, "FAIL: traced run produced no include-stage samples\n");
    return 1;
  }
  return 0;
}
