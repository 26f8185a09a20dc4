#include "tune/trial_runner.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "chain/factory.hpp"
#include "core/coordinator.hpp"
#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"
#include "workload/workload_file.hpp"

namespace hammer::tune {

std::vector<TrialOutcome> TrialRunner::run_batch(const std::vector<TrialPoint>& points) {
  std::vector<TrialOutcome> out;
  out.reserve(points.size());
  for (const TrialPoint& point : points) out.push_back(run_trial(point));
  return out;
}

json::Value TrialOutcome::to_json() const {
  json::Object o;
  o["trial"] = static_cast<std::int64_t>(index);
  o["seed"] = static_cast<std::int64_t>(seed);
  o["txs"] = static_cast<std::int64_t>(txs);
  o["stage"] = stage;
  o["plan"] = assignment_key(assignment);
  o["committed"] = static_cast<std::int64_t>(committed);
  o["failed"] = static_cast<std::int64_t>(failed);
  o["tps"] = tps;
  o["p50_ms"] = p50_ms;
  o["p99_ms"] = p99_ms;
  o["feasible"] = feasible;
  o["promoted"] = promoted;
  return json::Value(std::move(o));
}

json::Value plan_json(const json::Value& base_chain, const Assignment& assignment) {
  json::Value spec = base_chain;
  json::Object& obj = spec.as_object();
  if (!obj.count("name")) obj["name"] = "tune-sut";
  json::Object driver;
  for (const auto& [name, value] : assignment) {
    std::string key;
    if (knob_layer(name, &key) == KnobLayer::kChain) {
      obj[key] = value;
    } else {
      driver[key] = value;
    }
  }
  json::Object plan;
  plan["chains"] = json::Value(json::Array{std::move(spec)});
  plan["driver"] = json::Value(std::move(driver));
  return json::Value(std::move(plan));
}

TrialOutcome outcome_from_run(const TrialPoint& point, double slo_p99_ms,
                              std::uint64_t committed, std::uint64_t failed, double tps,
                              std::int64_t p50_us, std::int64_t p99_us) {
  TrialOutcome outcome;
  outcome.index = point.index;
  outcome.seed = point.seed;
  outcome.txs = point.txs;
  outcome.assignment = point.assignment;
  outcome.committed = committed;
  outcome.failed = failed;
  outcome.tps = tps;
  outcome.p50_ms = static_cast<double>(p50_us) / 1000.0;
  outcome.p99_ms = static_cast<double>(p99_us) / 1000.0;
  outcome.feasible = committed > 0 && outcome.p99_ms <= slo_p99_ms;
  return outcome;
}

// ------------------------------------------------------------------ local

LocalTrialRunner::LocalTrialRunner(TrialConfig config) : config_(std::move(config)) {
  HAMMER_CHECK_MSG(!config_.base_chain.is_null(), "TrialConfig needs a base chain spec");
}

TrialOutcome LocalTrialRunner::run_trial(const TrialPoint& point) {
  // The candidate plan: base spec + chain overrides, driver overrides
  // through the same parser (and unknown-key rejection) the control plane
  // uses for control.deploy.
  json::Value plan = plan_json(config_.base_chain, point.assignment);
  const json::Value& spec = plan.at("chains").as_array()[0];
  std::size_t channels_per_target = 2;
  core::DriverOptions options =
      core::driver_options_from_json(plan.at("driver"), &channels_per_target);
  options.server_id = "tune-" + std::to_string(point.index);

  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at(spec.at("name").as_string());
  HAMMER_CHECK_MSG(!sut.smallbank_accounts.empty(),
                   "tune base chain needs smallbank_accounts_per_shard > 0");

  workload::WorkloadProfile profile = config_.profile;
  profile.seed = point.seed;
  profile.client_id = "tune-" + std::to_string(point.index);
  if (profile.contract == "kv") {
    chain::genesis_kv_keys(*sut.chain, sut.smallbank_accounts);
  }
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, point.txs);

  const std::size_t endpoints = sut.endpoint_count();
  core::RunResult result;
  if (endpoints > 1) {
    std::size_t per_target = std::max<std::size_t>(1, options.worker_threads / endpoints);
    core::HammerDriver driver(sut.make_cluster(per_target, channels_per_target),
                              util::SteadyClock::shared(), options);
    result = driver.run(wf, nullptr);
  } else {
    core::HammerDriver driver(
        core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                 sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), options);
    result = driver.run(wf, nullptr);
  }
  return outcome_from_run(point, config_.slo_p99_ms, result.committed, result.failed,
                          result.tps, result.latency.percentile(50),
                          result.latency.percentile(99));
}

// ------------------------------------------------------------------ fleet

FleetTrialRunner::FleetTrialRunner(TrialConfig config, const std::string& worker_binary,
                                   std::size_t workers)
    : config_(std::move(config)) {
  HAMMER_CHECK_MSG(workers >= 1, "FleetTrialRunner needs >= 1 worker");
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(core::WorkerProcess::spawn(worker_binary, {"--worker"}));
  }
}

FleetTrialRunner::~FleetTrialRunner() {
  // One stop per worker; Coordinator::stop tolerates losing the shutdown
  // race, and wait() reaps the processes.
  for (core::WorkerProcess& process : workers_) {
    try {
      core::Coordinator coordinator({{"127.0.0.1", process.port()}});
      coordinator.stop();
    } catch (const std::exception&) {
      process.terminate();
    }
    process.wait();
  }
}

TrialOutcome FleetTrialRunner::run_on_worker(const TrialPoint& point, std::size_t worker) {
  // The trial's own SUT, deployed locally over TCP so the worker process
  // can dial it. chain.* knobs apply here; driver.* knobs ride the
  // control.deploy plan (same unknown-key rejection, worker side).
  json::Value plan = plan_json(config_.base_chain, point.assignment);
  json::Value& spec = plan["chains"].as_array()[0];
  spec.as_object()["transport"] = "tcp";
  core::Deployment deployment =
      core::Deployment::deploy(plan, util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at(spec.at("name").as_string());
  HAMMER_CHECK_MSG(!sut.smallbank_accounts.empty(),
                   "tune base chain needs smallbank_accounts_per_shard > 0");

  workload::WorkloadProfile profile = config_.profile;
  profile.seed = point.seed;
  profile.client_id = "tune-" + std::to_string(point.index);
  // A 1-worker fleet shard is the identity: same accounts, same seed, same
  // transaction stream a LocalTrialRunner would generate for this point.
  core::FleetPlan fleet_plan;
  for (std::uint16_t port : sut.tcp_ports()) {
    fleet_plan.sut_endpoints.emplace_back("127.0.0.1", port);
  }
  fleet_plan.accounts = sut.smallbank_accounts;
  fleet_plan.workload = profile.to_json();
  fleet_plan.total_txs = point.txs;
  fleet_plan.driver = plan.at("driver");

  core::Coordinator coordinator({{"127.0.0.1", workers_[worker].port()}});
  core::FleetResult fleet_result = coordinator.run(fleet_plan);
  const core::RunResult& result = fleet_result.merged;
  return outcome_from_run(point, config_.slo_p99_ms, result.committed, result.failed,
                          result.tps, result.latency.percentile(50),
                          result.latency.percentile(99));
}

TrialOutcome FleetTrialRunner::run_trial(const TrialPoint& point) {
  return run_on_worker(point, 0);
}

std::vector<TrialOutcome> FleetTrialRunner::run_batch(const std::vector<TrialPoint>& points) {
  std::vector<TrialOutcome> out(points.size());
  std::vector<std::string> errors;
  std::mutex mu;
  // Waves of <= fleet-size trials; within a wave, trial j runs on worker j.
  for (std::size_t base = 0; base < points.size(); base += workers_.size()) {
    std::size_t wave = std::min(workers_.size(), points.size() - base);
    std::vector<std::thread> threads;
    threads.reserve(wave);
    for (std::size_t j = 0; j < wave; ++j) {
      threads.emplace_back([&, j] {
        try {
          out[base + j] = run_on_worker(points[base + j], j);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back(e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (!errors.empty()) {
      throw TransportError("fleet trial failed: " + errors.front());
    }
  }
  return out;
}

}  // namespace hammer::tune
