// Smoke check for the TCP transport under driver load: deploys a neuchain
// SUT behind a real TcpServer, drives a closed-loop peak probe with batched
// submits, and exits nonzero if any transaction is lost. Registered with
// ctest (see tests/CMakeLists.txt) so the multiplexing client + epoll server
// get exercised end to end on every test run — including sanitizer builds
// (-DHAMMER_SANITIZE=address|thread).
#include <cstdio>

#include "core/deployment.hpp"
#include "core/driver.hpp"

int main() {
  using namespace hammer;
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 200}]
  })");
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");
  if (!sut.tcp_server) {
    std::fprintf(stderr, "FAIL: plan requested tcp but no TcpServer was started\n");
    return 1;
  }

  workload::WorkloadProfile profile;
  profile.seed = 7;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 400);

  core::DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 8;
  core::RunResult result =
      core::run_peak_probe(core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                                    sut.make_adapters(1)[0]),
                           util::SteadyClock::shared(), options, wf);

  std::printf("tcp peak probe: submitted=%llu committed=%llu unmatched=%llu tps=%.0f\n",
              static_cast<unsigned long long>(result.submitted),
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.unmatched), result.tps);
  if (result.submitted != 400 || result.unmatched != 0 || result.committed == 0 ||
      result.tps <= 0.0) {
    std::fprintf(stderr, "FAIL: peak probe lost transactions over tcp\n");
    return 1;
  }
  return 0;
}
