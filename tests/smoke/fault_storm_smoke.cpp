// Fault-storm smoke: drives a TCP-deployed neuchain SUT through an
// aggressive, fully seeded fault plan — injected connection resets and
// latency spikes on the worker channels, transient submit rejections
// inside the SUT — with a retry policy that rides the storm out.
//
// Every fault here is decided per transaction (fault/fault.hpp), so the
// set of transactions hit depends on the seeds alone. The smoke runs the
// storm three times from scratch with the same seeds:
//   - two 1-worker runs must agree on the client and SUT fault counts, on
//     committed/failed/rejected and on the SUT's state digest;
//   - a 4-worker run, which cuts the sends into different frames, must
//     still agree on the fault counts.
// Retries depend on the frame cut (one reset fails a whole frame), so they
// are printed, not compared: each run must retry at least once and at most
// once per injected conn_reset or submit_reject — a retry that no injected
// fault explains (a timeout, a send racing a dead socket) fails the smoke.
//
// Timing-driven sites (drop_response, slow_loris, block_stall) are
// exercised elsewhere. The workload must also be semantically
// order-independent: accounts start rich enough that no ≤100-unit op can
// overdraft, and amalgamate (which zeroes its source account, making later
// ops on it fail or not depending on block-boundary timing) is excluded
// from the mix.
// Run under -DHAMMER_SANITIZE=thread for the reconnect/retry race check.
#include <cstdio>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"

namespace {

struct StormOutcome {
  std::string client_faults;
  std::string sut_faults;
  std::string state_digest;
  unsigned long long committed = 0;
  unsigned long long failed = 0;
  unsigned long long rejected = 0;
  unsigned long long submitted = 0;
  unsigned long long unmatched = 0;
  unsigned long long retries = 0;
  unsigned long long retry_causes = 0;  // injected conn_reset + submit_reject
};

StormOutcome run_storm(std::uint64_t client_seed, std::size_t worker_threads) {
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
  client_plan.seed = client_seed;
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
  options.worker_threads = worker_threads;
  options.submit_batch_size = 4;
  options.fault_injector = client_faults;
  auto poller = sut.make_adapters(1)[0];
  core::RunResult result = core::run_peak_probe(
      core::SutCluster::single(sut.make_adapters(worker_threads, adapter_config, client_faults),
                               poller),
      util::SteadyClock::shared(), options, wf);

  StormOutcome outcome;
  outcome.client_faults = client_faults->counts_json().dump();
  outcome.sut_faults = sut.fault_injector->counts_json().dump();
  outcome.state_digest = poller->state_digest(0);
  outcome.committed = result.committed;
  outcome.failed = result.failed;
  outcome.rejected = result.rejected;
  outcome.submitted = result.submitted;
  outcome.unmatched = result.unmatched;
  outcome.retries = result.retries;
  outcome.retry_causes = client_faults->injected(fault::FaultKind::kConnReset) +
                         sut.fault_injector->injected(fault::FaultKind::kSubmitReject);
  return outcome;
}

void print(const char* label, const StormOutcome& run) {
  std::printf("%s: submitted=%llu committed=%llu failed=%llu rejected=%llu unmatched=%llu "
              "retries=%llu (injected conn_reset+submit_reject=%llu)\n"
              "  client faults: %s\n  sut faults:    %s\n  state digest:  %s\n",
              label, run.submitted, run.committed, run.failed, run.rejected, run.unmatched,
              run.retries, run.retry_causes, run.client_faults.c_str(), run.sut_faults.c_str(),
              run.state_digest.c_str());
}

// The checks every run must pass on its own.
bool sane(const char* label, const StormOutcome& run) {
  if (run.submitted != 400 || run.unmatched != 0) {
    std::fprintf(stderr, "FAIL: %s lost transactions (submitted=%llu unmatched=%llu)\n", label,
                 run.submitted, run.unmatched);
    return false;
  }
  if (run.committed + run.failed != 400) {
    std::fprintf(stderr, "FAIL: %s committed+failed != workload size\n", label);
    return false;
  }
  if (run.committed == 0) {
    std::fprintf(stderr, "FAIL: %s committed nothing under the storm\n", label);
    return false;
  }
  if (run.retries == 0) {
    std::fprintf(stderr, "FAIL: %s injected faults but nothing retried\n", label);
    return false;
  }
  if (run.retries > run.retry_causes) {
    std::fprintf(stderr,
                 "FAIL: %s retried %llu times but injected only %llu conn_reset+submit_reject "
                 "faults: some retry has no injected cause\n",
                 label, run.retries, run.retry_causes);
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const StormOutcome first = run_storm(77, 1);
  const StormOutcome second = run_storm(77, 1);
  const StormOutcome wide = run_storm(77, 4);
  print("fault storm run 1 (1 worker)", first);
  print("fault storm run 2 (1 worker)", second);
  print("fault storm run 3 (4 workers)", wide);
  if (!sane("run 1", first) || !sane("run 2", second) || !sane("run 3", wide)) return 1;

  if (first.client_faults != second.client_faults || first.sut_faults != second.sut_faults ||
      first.committed != second.committed || first.failed != second.failed ||
      first.rejected != second.rejected || first.state_digest != second.state_digest) {
    std::fprintf(stderr, "FAIL: same seeds, different storms (runs 1 and 2)\n");
    return 1;
  }
  if (first.client_faults != wide.client_faults || first.sut_faults != wide.sut_faults) {
    std::fprintf(stderr, "FAIL: same seeds, different storms at 4 workers (runs 1 and 3)\n");
    return 1;
  }
  std::printf("fault storm: three seeded runs hit the same transactions; runs 1 and 2 "
              "produced identical totals and state\n");
  return 0;
}
