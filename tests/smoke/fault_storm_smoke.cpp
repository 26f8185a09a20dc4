// Fault-storm smoke: drives a TCP-deployed neuchain SUT through an
// aggressive, fully seeded fault plan — injected connection resets and
// latency spikes on the (single) worker channel, transient submit
// rejections inside the SUT — with a retry policy that rides the storm out.
// The run is executed TWICE from scratch with the same seeds; the injected
// fault trace and the committed/failed totals must be bit-identical, which
// is the determinism contract of fault::FaultInjector end to end.
//
// Only deterministically-ordered fault sites are enabled (one worker
// thread, client-side + submit-path faults); timing-driven sites
// (drop_response, slow_loris, block_stall) are exercised elsewhere. The
// workload must also be semantically order-independent: accounts start
// rich enough that no ≤100-unit op can overdraft, and amalgamate (which
// zeroes its source account, making later ops on it fail or not depending
// on block-boundary timing) is excluded from the mix.
// Run under -DHAMMER_SANITIZE=thread for the reconnect/retry race check.
#include <cstdio>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"

namespace {

struct StormOutcome {
  std::string client_faults;
  std::string sut_faults;
  unsigned long long committed = 0;
  unsigned long long failed = 0;
  unsigned long long rejected = 0;
  unsigned long long submitted = 0;
  unsigned long long unmatched = 0;
  unsigned long long retries = 0;
};

StormOutcome run_storm() {
  using namespace hammer;
  json::Value plan = json::Value::parse(R"({
    "chains": [{"kind": "neuchain", "name": "sut", "block_interval_ms": 15,
                "transport": "tcp", "smallbank_accounts_per_shard": 100,
                "initial_checking": 1000000, "initial_savings": 1000000,
                "faults": {"seed": 33, "submit_reject_p": 0.05}}]
  })");
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  auto& sut = deployment.at("sut");

  fault::FaultPlan client_plan;
  client_plan.seed = 77;
  client_plan.conn_reset_p = 0.1;
  client_plan.client_latency_p = 0.1;
  client_plan.client_latency_us = 2000;
  auto client_faults = std::make_shared<fault::FaultInjector>(client_plan);

  rpc::ClientConfig adapter_config;
  adapter_config.retry = rpc::RetryPolicy::standard(8);
  adapter_config.retry.initial_backoff = std::chrono::milliseconds(1);
  adapter_config.retry.on_rejected = true;  // ride out injected rejections

  workload::WorkloadProfile profile;
  profile.seed = 7;
  profile.op_mix = {{"deposit_checking", 1.0},
                    {"transact_savings", 1.0},
                    {"send_payment", 1.0},
                    {"write_check", 1.0}};
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 400);

  core::DriverOptions options;
  options.worker_threads = 1;  // one send stream -> deterministic draw order
  options.submit_batch_size = 4;
  options.fault_injector = client_faults;
  core::RunResult result = core::run_peak_probe(
      core::SutCluster::single(sut.make_adapters(1, adapter_config, client_faults),
                               sut.make_adapters(1)[0]),
      util::SteadyClock::shared(), options, wf);

  StormOutcome outcome;
  outcome.client_faults = client_faults->counts_json().dump();
  outcome.sut_faults = sut.fault_injector->counts_json().dump();
  outcome.committed = result.committed;
  outcome.failed = result.failed;
  outcome.rejected = result.rejected;
  outcome.submitted = result.submitted;
  outcome.unmatched = result.unmatched;
  outcome.retries = result.retries;
  return outcome;
}

}  // namespace

int main() {
  StormOutcome first = run_storm();
  StormOutcome second = run_storm();

  std::printf("fault storm run 1: submitted=%llu committed=%llu failed=%llu rejected=%llu "
              "unmatched=%llu retries=%llu\n",
              first.submitted, first.committed, first.failed, first.rejected,
              first.unmatched, first.retries);
  std::printf("  client faults: %s\n  sut faults:    %s\n", first.client_faults.c_str(),
              first.sut_faults.c_str());

  if (first.submitted != 400 || first.unmatched != 0) {
    std::fprintf(stderr, "FAIL: storm run lost transactions (submitted=%llu unmatched=%llu)\n",
                 first.submitted, first.unmatched);
    return 1;
  }
  if (first.committed + first.failed != 400) {
    std::fprintf(stderr, "FAIL: committed+failed != workload size\n");
    return 1;
  }
  if (first.retries == 0) {
    std::fprintf(stderr, "FAIL: the storm injected faults but nothing retried\n");
    return 1;
  }
  if (first.committed == 0) {
    std::fprintf(stderr, "FAIL: nothing committed under the storm\n");
    return 1;
  }

  bool identical = first.client_faults == second.client_faults &&
                   first.sut_faults == second.sut_faults &&
                   first.committed == second.committed && first.failed == second.failed &&
                   first.rejected == second.rejected && first.retries == second.retries;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: same seeds, different storms\n"
                 "  run 2: committed=%llu failed=%llu rejected=%llu retries=%llu\n"
                 "  client faults: %s\n  sut faults:    %s\n",
                 second.committed, second.failed, second.rejected, second.retries,
                 second.client_faults.c_str(), second.sut_faults.c_str());
    return 1;
  }
  std::printf("fault storm: two seeded runs produced identical traces and totals\n");
  return 0;
}
