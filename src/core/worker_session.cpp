#include "core/worker_session.hpp"

#include <unistd.h>

#include <algorithm>

#include "core/deployment.hpp"
#include "rpc/api.hpp"
#include "telemetry/endpoint.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::core {

namespace {

// Every key a control.deploy plan may carry. Unknown keys fail by name —
// the same contract core::Deployment enforces for chain specs.
const char* const kKnownPlanKeys[] = {"worker_index", "worker_count", "endpoints",
                                      "accounts",     "workload",     "total_txs",
                                      "driver",       "client",       "faults"};

void validate_plan_keys(const json::Value& plan) {
  for (const auto& [key, value] : plan.as_object()) {
    (void)value;
    bool known = std::any_of(std::begin(kKnownPlanKeys), std::end(kKnownPlanKeys),
                             [&](const char* k) { return key == k; });
    if (!known) {
      throw ParseError("unknown deploy plan key '" + key + "' in control.deploy");
    }
  }
}

rpc::ClientConfig parse_client_config(const json::Value& v) {
  rpc::ClientConfig config;
  if (v.is_null()) return config;
  std::string codec = v.get_string("codec", "binary");
  if (codec == "json") {
    config.codec = rpc::CodecPreference::kJsonOnly;
  } else if (codec != "binary") {
    throw ParseError("unknown client codec '" + codec + "' in control.deploy");
  }
  config.timeout = std::chrono::milliseconds(v.get_int("timeout_ms", 5000));
  auto attempts = static_cast<std::uint32_t>(v.get_int("retry_attempts", 1));
  if (attempts > 1) config.retry = rpc::RetryPolicy::standard(attempts);
  config.retry.on_rejected = v.get_bool("retry_on_rejected", config.retry.on_rejected);
  return config;
}

std::vector<RemoteEndpoint> parse_endpoints(const json::Value& v) {
  std::vector<RemoteEndpoint> endpoints;
  for (const json::Value& e : v.as_array()) {
    RemoteEndpoint endpoint;
    endpoint.host = e.get_string("host", "127.0.0.1");
    endpoint.port = static_cast<std::uint16_t>(e.at("port").as_int());
    endpoints.push_back(std::move(endpoint));
  }
  if (endpoints.empty()) throw ParseError("control.deploy needs >= 1 SUT endpoint");
  return endpoints;
}

}  // namespace

WorkerSession::WorkerSession(Options options) : options_(options) {
  dispatcher_ = std::make_shared<rpc::Dispatcher>();
  dispatcher_->register_method("control.hello",
                               [this](const json::Value& p) { return handle_hello(p); });
  dispatcher_->register_method("control.deploy",
                               [this](const json::Value& p) { return handle_deploy(p); });
  dispatcher_->register_method("control.start",
                               [this](const json::Value& p) { return handle_start(p); });
  dispatcher_->register_method("control.set_rate",
                               [this](const json::Value& p) { return handle_set_rate(p); });
  dispatcher_->register_method("control.stats",
                               [this](const json::Value& p) { return handle_stats(p); });
  dispatcher_->register_method("control.report",
                               [this](const json::Value& p) { return handle_report(p); });
  dispatcher_->register_method("control.stop",
                               [this](const json::Value& p) { return handle_stop(p); });
  // One registry: control.*, telemetry.* and rpc.api share the dispatcher
  // (and thus the namespace-aware unknown-method error shape).
  telemetry::bind_telemetry_rpc(*dispatcher_);
  rpc::bind_api_info(*dispatcher_);
  server_ = std::make_unique<rpc::TcpServer>(dispatcher_, options_.port, options_.rpc_workers);
}

WorkerSession::~WorkerSession() {
  join_run_thread();
  server_->stop();
}

WorkerSession::State WorkerSession::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

const char* WorkerSession::state_name(State s) const {
  switch (s) {
    case State::kIdle: return "idle";
    case State::kDeployed: return "deployed";
    case State::kRunning: return "running";
    case State::kDone: return "done";
  }
  return "?";
}

void WorkerSession::join_run_thread() {
  if (run_thread_.joinable()) run_thread_.join();
}

json::Value WorkerSession::handle_hello(const json::Value&) {
  std::lock_guard<std::mutex> lock(mu_);
  return json::object({{"api", static_cast<std::int64_t>(rpc::kApiVersion)},
                       {"role", "worker"},
                       {"state", state_name(state_)},
                       {"worker_index", static_cast<std::int64_t>(worker_index_)},
                       {"pid", static_cast<std::int64_t>(::getpid())}});
}

json::Value WorkerSession::handle_deploy(const json::Value& params) {
  validate_plan_keys(params);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kRunning) {
      throw RejectedError("control.deploy rejected: worker is running");
    }
  }
  // A done worker is re-deployable; its finished run thread joins here.
  join_run_thread();

  auto worker_index = static_cast<std::size_t>(params.get_int("worker_index", 0));
  auto worker_count = static_cast<std::size_t>(params.get_int("worker_count", 1));
  if (worker_count == 0 || worker_index >= worker_count) {
    throw ParseError("control.deploy needs worker_index < worker_count");
  }
  std::vector<RemoteEndpoint> endpoints = parse_endpoints(params.at("endpoints"));
  std::vector<std::string> accounts;
  for (const json::Value& a : params.at("accounts").as_array()) {
    accounts.push_back(a.as_string());
  }
  workload::WorkloadProfile profile = workload::WorkloadProfile::from_json(params.at("workload"));
  auto total_txs = static_cast<std::size_t>(params.at("total_txs").as_int());

  // Shared parser (driver_options_from_json) so the coordinator, the tuner
  // and hand-written plans all hit the same unknown-key rejection.
  std::size_t channels_per_target = 2;
  DriverOptions options = driver_options_from_json(
      params.contains("driver") ? params.at("driver") : json::Value(), &channels_per_target);
  options.server_id = "worker-" + std::to_string(worker_index);
  rpc::ClientConfig client_config =
      parse_client_config(params.contains("client") ? params.at("client") : json::Value());

  // Client-side faults: the master plan's per-worker derivation, so every
  // worker draws a decorrelated-but-deterministic stream.
  std::shared_ptr<fault::FaultInjector> client_faults;
  if (params.contains("faults")) {
    fault::FaultPlan master = fault::FaultPlan::from_json(params.at("faults"));
    client_faults = std::make_shared<fault::FaultInjector>(master.derived_for_worker(
        static_cast<std::uint64_t>(worker_index)));
    options.fault_injector = client_faults;
  }

  workload::ShardSpec shard{worker_index, worker_count};
  workload::WorkloadFile wf =
      workload::generate_workload_shard(profile, accounts, total_txs, shard);

  std::size_t workers_per_target =
      std::max<std::size_t>(1, options.worker_threads / endpoints.size());
  std::shared_ptr<SutCluster> cluster = make_remote_cluster(
      endpoints, workers_per_target, channels_per_target, client_config, client_faults);

  // Session-owned pacing controller: the driver borrows it, so a later
  // control.set_rate reaches the workers already blocked in acquire().
  LoadOptions load_options;
  load_options.rate = options.target_rate;
  load_options.burst = options.rate_burst;
  auto load = std::make_shared<LoadController>(load_options, util::SteadyClock::shared());
  options.load = load;

  std::lock_guard<std::mutex> lock(mu_);
  worker_index_ = worker_index;
  cluster_ = std::move(cluster);
  load_ = std::move(load);
  driver_options_ = std::move(options);
  workload_ = std::move(wf);
  result_.reset();
  last_submitted_ = 0;
  last_completed_ = 0;
  state_ = State::kDeployed;
  HLOG_INFO("worker") << "deployed shard " << worker_index << "/" << worker_count << ": "
                      << workload_.transactions.size() << " txs over "
                      << endpoints.size() << " endpoint(s)";
  return json::object({{"worker_index", static_cast<std::int64_t>(worker_index)},
                       {"txs", static_cast<std::int64_t>(workload_.transactions.size())},
                       {"accounts", static_cast<std::int64_t>(
                                        workload::shard_accounts(accounts, shard).size())},
                       {"shards", static_cast<std::int64_t>(cluster_->total_shards())}});
}

json::Value WorkerSession::handle_start(const json::Value&) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kDeployed) {
    throw RejectedError(std::string("control.start rejected: worker is ") +
                        state_name(state_) + ", not deployed");
  }
  state_ = State::kRunning;
  run_thread_ = std::thread([this] {
    HammerDriver driver(cluster_, util::SteadyClock::shared(), driver_options_);
    RunResult result = driver.run(workload_, /*rate=*/nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    state_ = State::kDone;
    cv_.notify_all();
  });
  return json::object({{"started", true}});
}

json::Value WorkerSession::handle_set_rate(const json::Value& params) {
  double rate = params.at("rate").as_double();
  if (rate < 0.0) throw ParseError("control.set_rate needs rate >= 0");
  std::lock_guard<std::mutex> lock(mu_);
  if (!load_ || state_ == State::kIdle) {
    throw RejectedError("control.set_rate rejected: worker has no deployment");
  }
  double previous = load_->target_rate();
  load_->set_rate(rate);
  HLOG_INFO("worker") << "set_rate " << previous << " -> " << rate << " tx/s";
  return json::object({{"rate", rate}, {"previous", previous}, {"state", state_name(state_)}});
}

json::Value WorkerSession::handle_stats(const json::Value&) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  if (cluster_) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      submitted += cluster_->target(i).submitted();
      completed += cluster_->target(i).completed();
    }
  }
  json::Value v = json::object({{"state", state_name(state_)},
                                {"submitted", submitted},
                                {"completed", completed},
                                {"delta_submitted", submitted - last_submitted_},
                                {"delta_completed", completed - last_completed_}});
  last_submitted_ = submitted;
  last_completed_ = completed;
  return v;
}

json::Value WorkerSession::handle_report(const json::Value&) {
  std::lock_guard<std::mutex> lock(mu_);
  // Never blocks: a TcpServer worker thread waiting on the run would stall
  // the control plane (stats, stop). The coordinator polls.
  if (!result_.has_value()) {
    return json::object({{"done", false}, {"state", state_name(state_)}});
  }
  return json::object({{"done", true},
                       {"worker_index", static_cast<std::int64_t>(worker_index_)},
                       {"result", result_->to_wire_json()}});
}

json::Value WorkerSession::handle_stop(const json::Value&) {
  std::lock_guard<std::mutex> lock(mu_);
  stop_requested_ = true;
  cv_.notify_all();
  return json::object({{"stopping", true}});
}

void WorkerSession::serve() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stop_requested_ && state_ != State::kRunning; });
  }
  join_run_thread();
  // Grace window so the server thread can flush the control.stop ack the
  // coordinator is still reading (the coordinator also tolerates losing
  // the race).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->stop();
}

}  // namespace hammer::core
