// Quickstart: evaluate one blockchain with Hammer in ~60 lines.
//
//   1. deploy a SUT (Neuchain simulator) from a JSON plan
//   2. generate a SmallBank workload
//   3. run the Hammer driver (async signing pipeline + task-processing
//      algorithm) at a fixed offered rate
//   4. print the run summary and the Table II SQL report
//
// With --telemetry <port>, the process additionally serves
// telemetry.metrics / telemetry.snapshot on that port (0 = pick a free
// one) and prints one live snapshot line per second while the run is in
// flight — scrape it mid-run with any JSON-RPC client.
//
// With --faults, the deployment carries a seeded fault plan (transient
// chain.submit rejections + block-production stalls) and the adapters run
// under a retry policy that rides the faults out; the summary then shows
// the retries spent and the injected-fault counts.
//
// With --endpoints N (N > 1), the demo SUT becomes an N-shard Meepo
// exposing N tagged RPC surfaces, and the driver runs the cluster driving
// path (sign -> route -> submit -> detect) across them. --routing picks the
// RoutingPolicy: round_robin | least_inflight | shard. Try
//   ./build/examples/quickstart --endpoints 4 --routing shard
// and watch the per-target split in the summary (shard-affine keeps every
// submission on the endpoint owning its sender's shard).
//
// With --trace-out <path>, the run's distributed trace (driver lifecycle
// lanes + server-side spans, stitched per sampled transaction) is written
// as Chrome trace_event JSON — open it at https://ui.perfetto.dev.
//
// With --rate R, the run is paced by the closed-loop LoadController
// instead of the open-loop replay schedule: submit workers acquire a
// token per transaction from a bucket refilled at R tx/s, and the summary
// reports target vs offered vs achieved rate (DESIGN.md §14).
//
// With --saturate, the demo skips the fixed run and instead ramps a
// rate-paced driver with core::SaturationSearch until the latency knee,
// printing max sustainable TPS and the probe trail — the capacity-planning
// answer for the demo SUT. Combine with --faults to watch the knee drop.
//
// With --tune, the demo instead searches a small deployment knob grid
// (block interval x driver batching) with hammer-tune and prints the
// trials table plus the winning plan — the self-tuning answer to "how
// should I configure this SUT?". See examples/hammer_tune for the full
// tool (custom specs, SLOs, fleet-parallel trials).
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "core/saturation.hpp"
#include "report/resource_monitor.hpp"
#include "report/run_report.hpp"
#include "report/tune_report.hpp"
#include "telemetry/endpoint.hpp"

using namespace hammer;

int main(int argc, char** argv) {
  std::unique_ptr<telemetry::TelemetryEndpoint> endpoint;
  bool with_faults = false;
  std::size_t endpoints = 1;
  core::RoutingKind routing = core::RoutingKind::kRoundRobin;
  std::string trace_out;
  double paced_rate = 0.0;
  bool saturate = false;
  bool tune_demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      endpoint = std::make_unique<telemetry::TelemetryEndpoint>(
          static_cast<std::uint16_t>(std::atoi(argv[++i])));
      std::printf("telemetry endpoint on 127.0.0.1:%u (telemetry.metrics / "
                  "telemetry.snapshot)\n",
                  endpoint->port());
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      with_faults = true;
    } else if (std::strcmp(argv[i], "--endpoints") == 0 && i + 1 < argc) {
      endpoints = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (endpoints == 0) endpoints = 1;
    } else if (std::strcmp(argv[i], "--routing") == 0 && i + 1 < argc) {
      routing = core::routing_kind_from_string(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      paced_rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--saturate") == 0) {
      saturate = true;
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      tune_demo = true;
    }
  }

  // --tune: search a small knob grid for the best demo-SUT plan. Runs
  // before the main deployment — each trial deploys its own candidate SUT.
  if (tune_demo) {
    json::Value doc = json::Value::parse(R"({
      "chain": {
        "kind": "neuchain", "name": "demo-chain",
        "block_interval_ms": 50,
        "smallbank_accounts_per_shard": 1000
      },
      "workload": {"contract": "smallbank", "seed": 1},
      "tune": {
        "strategy": "halving", "width": 4, "eta": 2, "max_rungs": 2,
        "seed": 42, "base_txs": 400, "slo_p99_ms": 400,
        "knobs": {
          "chain.block_interval_ms":  {"values": [20, 80]},
          "driver.worker_threads":    {"values": [1, 4]}
        }
      }
    })");
    double slo_p99_ms = 0.0;
    tune::SearchOptions search_options =
        tune::SearchOptions::from_json(doc.at("tune"), &slo_p99_ms);
    tune::ParamSpace space = tune::ParamSpace::from_json(doc.at("tune").at("knobs"));
    tune::TrialConfig config;
    config.base_chain = doc.at("chain");
    config.profile = workload::WorkloadProfile::from_json(doc.at("workload"));
    config.slo_p99_ms = slo_p99_ms;
    tune::LocalTrialRunner runner(config);
    tune::TuneResult tuned = tune::Search(search_options).run(runner, space);
    report::TuneReport tune_report(search_options, tuned, slo_p99_ms);
    std::printf("%s\nwinning plan:\n%s\n", tune_report.rendered().c_str(),
                tune::plan_json(config.base_chain, tuned.best.assignment).dump(2).c_str());
    return 0;
  }

  // 1. Deployment plan (the Ansible-playbook stand-in). --faults adds a
  // seeded SUT-side fault plan; the deployment installs the injector on the
  // chain (and its TcpServer, if the transport were tcp).
  json::Value plan = json::Value::parse(R"({
    "chains": [{
      "kind": "neuchain", "name": "demo-chain",
      "block_interval_ms": 50,
      "smallbank_accounts_per_shard": 1000
    }]
  })");
  if (endpoints > 1) {
    // Multi-endpoint demo: a sharded SUT (one shard per endpoint) so
    // routing policies have something to be affine TO.
    json::Object& spec = plan.as_object()["chains"].as_array()[0].as_object();
    spec["kind"] = "meepo";
    spec["num_shards"] = static_cast<std::int64_t>(endpoints);
    spec["endpoints"] = static_cast<std::int64_t>(endpoints);
    std::printf("cluster mode: %zu-shard meepo behind %zu RPC endpoints, routing=%s\n",
                endpoints, endpoints, core::to_string(routing));
  }
  if (with_faults) {
    plan.as_object()["chains"].as_array()[0].as_object()["faults"] = json::Value::parse(
        R"({"seed": 9, "submit_reject_p": 0.02, "block_stall_p": 0.1, "block_stall_ms": 30})");
    std::printf("fault injection armed: 2%% transient submit rejections, 10%% block stalls\n");
  }
  core::Deployment deployment = core::Deployment::deploy(plan, util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at("demo-chain");
  std::printf("deployed %s with %zu SmallBank accounts\n", sut.chain->kind().c_str(),
              sut.smallbank_accounts.size());

  // --saturate: skip the fixed run; ramp a rate-paced driver until the
  // latency knee and print the capacity-planning answer.
  if (saturate) {
    core::SaturationOptions sat;
    sat.start_rate = 250.0;
    sat.growth = 2.0;
    sat.max_rate = 8000.0;
    // Short probes leave the commit+detection tail visible in the achieved
    // rate; 0.75 tolerates it while still catching a genuine collapse. The
    // absolute deliver floor backstops the case where offered and achieved
    // sag together.
    sat.sustain_fraction = 0.75;
    sat.deliver_fraction = 0.7;
    sat.seed = 42;
    core::SaturationSearch search(sat);
    core::SaturationResult found = search.run([&](double rate, std::uint64_t seed) {
      workload::WorkloadProfile profile;
      profile.seed = seed;
      profile.op_mix = {{"send_payment", 1.0}};
      auto txs = static_cast<std::size_t>(2.0 * rate < 4000.0 ? 2.0 * rate : 4000.0);
      workload::WorkloadFile wf =
          workload::generate_workload(profile, sut.smallbank_accounts, txs);
      core::DriverOptions probe_options;
      probe_options.worker_threads = 2;
      probe_options.target_rate = rate;
      // Small burst: a big instant prefix would inflate the offered-rate
      // window on these short probes.
      probe_options.rate_burst = 8.0;
      probe_options.load_seed = seed;
      core::HammerDriver probe_driver(
          core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
          util::SteadyClock::shared(), probe_options);
      return probe_driver.run(wf, nullptr);
    });
    for (const core::SaturationProbe& probe : found.probes) {
      std::printf("  probe %7.0f tx/s: offered %7.0f achieved %7.0f p99 %7.2f ms%s\n",
                  probe.target, probe.offered, probe.achieved, probe.p99_ms,
                  probe.saturated ? "  <- saturated" : "");
    }
    if (found.found_knee) {
      std::printf("max sustainable: %.0f tx/s (degrades to %.0f committed tx/s past the "
                  "knee; base p99 %.2f ms)\n",
                  found.max_sustainable_tps, found.achieved_at_knee, found.base_p99_ms);
    } else {
      std::printf("no knee up to %.0f tx/s — the demo SUT outruns this grid\n", sat.max_rate);
    }
    return 0;
  }

  // 2. Workload: 5,000 SmallBank transactions (paper §V mix).
  workload::WorkloadProfile profile;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 5000);

  // 3. Drive it at 1,000 TPS, tracking completion with Algorithm 1. Every
  // 8th transaction is lifecycle-traced so the summary carries a per-stage
  // (sign/queue/submit/include/detect) latency breakdown.
  auto cache = std::make_shared<kvstore::KvStore>(util::SteadyClock::shared());
  auto db = std::make_shared<minisql::Database>();
  core::DriverOptions options;
  options.worker_threads = 2;
  options.trace_every_n = 8;
  // 1-in-8 sampling keeps the demo's Perfetto export well under 10 MB.
  options.trace_export_path = trace_out;
  // Write-behind: completed records stream cache -> SQL on a background
  // committer during the run instead of a run-end bulk scan.
  core::MetricsOptions metrics_options;
  metrics_options.write_behind = true;
  metrics_options.pending_ttl = std::chrono::minutes(5);
  options.metrics = std::make_shared<core::MetricsPipeline>(cache, db, metrics_options);
  workload::ControlSequence rate = workload::ControlSequence::constant(
      1000.0, std::chrono::seconds(5), std::chrono::milliseconds(100));
  // --rate: closed-loop pacing through the LoadController instead of the
  // open-loop replay schedule (both paths share the same accounting).
  const workload::ControlSequence* rate_plan = &rate;
  if (paced_rate > 0.0) {
    options.target_rate = paced_rate;
    rate_plan = nullptr;
    std::printf("closed-loop pacing at %.0f tx/s (token bucket, burst %.0f)\n", paced_rate,
                options.rate_burst);
  }
  // Under --faults the adapters retry transient rejections with seeded
  // exponential backoff instead of counting them as failures.
  rpc::ClientConfig adapter_config;
  if (with_faults) {
    adapter_config.retry = rpc::RetryPolicy::standard(4);
    adapter_config.retry.on_rejected = true;
    options.fault_injector = sut.fault_injector;
  }
  options.routing = routing;
  if (endpoints > 1) options.worker_threads = endpoints;  // one submit worker per target
  std::shared_ptr<core::SutCluster> cluster =
      endpoints > 1
          ? sut.make_cluster(/*workers_per_target=*/1, /*channels_per_target=*/1,
                             adapter_config)
          : core::SutCluster::single(sut.make_adapters(2, adapter_config),
                                     sut.make_adapters(1)[0]);
  core::HammerDriver driver(cluster, util::SteadyClock::shared(), options);

  // Live view while the run is in flight: one snapshot line per second from
  // the same registry the telemetry endpoint scrapes.
  report::ResourceMonitor monitor;
  std::atomic<bool> running{true};
  std::thread live([&running] {
    telemetry::MetricRegistry& reg = telemetry::MetricRegistry::global();
    telemetry::Counter& submitted = reg.counter("hammer_driver_submitted_total");
    telemetry::Counter& completed = reg.counter("hammer_driver_completed_total");
    telemetry::Gauge& inflight = reg.gauge("hammer_driver_inflight");
    telemetry::Counter& blocks = reg.counter("hammer_chain_blocks_sealed_total");
    while (running.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      if (!running.load()) break;
      std::printf("[live] submitted=%llu completed=%llu inflight=%lld blocks=%llu\n",
                  static_cast<unsigned long long>(submitted.value()),
                  static_cast<unsigned long long>(completed.value()),
                  static_cast<long long>(inflight.value()),
                  static_cast<unsigned long long>(blocks.value()));
    }
  });
  core::RunResult result = driver.run(wf, rate_plan);
  running.store(false);
  live.join();
  monitor.stop();

  // 4. Results: direct summary + the visualization layer's SQL view, with
  // the client's resource series folded into the report.
  std::printf("\n%s\n\n", result.summary().c_str());
  report::RunReport report = report::RunReport::build(*options.metrics, "quickstart", &monitor,
                                                      &result.stages);
  std::printf("%s\n", report.rendered.c_str());
  if (!result.stages.is_null()) {
    std::printf("stage breakdown: %s\n", result.stages.dump().c_str());
  }
  if (!trace_out.empty()) {
    std::printf("trace timeline written to %s (open at https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  if (endpoints > 1 && !result.targets.is_null()) {
    std::printf("per-target split: %s\n", result.targets.dump().c_str());
  }
  if (!result.faults.is_null()) {
    std::printf("injected faults: %s (retries spent riding them out: %llu)\n",
                result.faults.dump().c_str(),
                static_cast<unsigned long long>(result.retries));
  }
  return 0;
}
