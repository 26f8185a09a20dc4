// TCP transport bench — what the pipelined, batch-capable RPC layer buys.
//
// Two measurements over a real loopback TcpServer:
//
//   1. RPC microbench: N chain.submit round trips issued (a) as blocking
//      single calls, (b) pipelined via call_async with a bounded in-flight
//      window, (c) coalesced via call_batch chunks. Same connection, same
//      transactions — only the submission shape changes.
//
//   2. Driver-level peak probe: run_peak_probe over TCP with
//      DriverOptions::submit_batch_size = 1 vs 16, i.e. the end-to-end
//      effect of coalescing on measured submit throughput.
//
// Expectation: on loopback a round trip is cheap, so gains are modest but
// measurable; over a real network (paper testbed: client and SUT on
// separate VMs) the per-call latency dominates and batching multiplies
// throughput by roughly the batch size until the server saturates.
//
//   3. Codec microbench: the same echo calls through the same Dispatcher,
//      once over the JSON-RPC text codec and once over the negotiated
//      binary codec — with the retry layer armed and a (zero-probability)
//      fault injector installed on both ends, so the comparison includes
//      every policy layer a real run pays for. The binary_speedup row is
//      the codec's calls/sec multiplier and is floor-checked by CI.
//
// Artifact: bench_results/tcp_pipeline.csv
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <deque>
#include <future>
#include <thread>

#include "bench_util.hpp"
#include "telemetry/endpoint.hpp"
#include "telemetry/exposition.hpp"
#include "util/stopwatch.hpp"

using namespace hammer;

namespace {

std::vector<chain::Transaction> signed_txs(const core::DeployedChain& sut, std::size_t count,
                                           std::uint64_t seed) {
  workload::WorkloadFile wf = bench::smallbank_workload(sut, count, seed);
  core::KeyCache keys;
  std::vector<chain::Transaction> txs;
  txs.reserve(wf.transactions.size());
  for (chain::Transaction tx : wf.transactions) {
    tx.sign_with(keys.get(tx.sender));
    txs.push_back(std::move(tx));
  }
  return txs;
}

double submit_singles(rpc::Channel& channel, const std::vector<chain::Transaction>& txs) {
  util::Stopwatch watch(util::SteadyClock::shared());
  for (const chain::Transaction& tx : txs) {
    channel.call("chain.submit", json::object({{"tx", tx.to_json()}}));
  }
  return txs.size() / watch.elapsed_seconds();
}

double submit_pipelined(rpc::Channel& channel, const std::vector<chain::Transaction>& txs,
                        std::size_t window) {
  util::Stopwatch watch(util::SteadyClock::shared());
  std::deque<std::future<json::Value>> in_flight;
  for (const chain::Transaction& tx : txs) {
    if (in_flight.size() >= window) {
      in_flight.front().get();
      in_flight.pop_front();
    }
    in_flight.push_back(channel.call_async("chain.submit", json::object({{"tx", tx.to_json()}})));
  }
  for (auto& f : in_flight) f.get();
  return txs.size() / watch.elapsed_seconds();
}

double submit_batched(rpc::Channel& channel, const std::vector<chain::Transaction>& txs,
                      std::size_t chunk) {
  util::Stopwatch watch(util::SteadyClock::shared());
  for (std::size_t i = 0; i < txs.size(); i += chunk) {
    std::vector<rpc::BatchCall> calls;
    for (std::size_t j = i; j < std::min(txs.size(), i + chunk); ++j) {
      calls.push_back({"chain.submit", json::object({{"tx", txs[j].to_json()}})});
    }
    for (const rpc::BatchReply& reply : channel.call_batch(calls)) reply.take();
  }
  return txs.size() / watch.elapsed_seconds();
}

// A mid-size parameter tree per call: the shape of a signed smallbank
// transaction envelope, which is what the driving path actually ships.
json::Value echo_params(std::uint64_t i) {
  return json::object(
      {{"tx", json::object({{"sender", "acct-" + std::to_string(i % 1000)},
                            {"contract", "smallbank"},
                            {"op", "send_payment"},
                            {"args", json::object({{"from", "acct-" + std::to_string(i % 1000)},
                                                   {"to", "acct-" + std::to_string(i % 997)},
                                                   {"amount", static_cast<std::int64_t>(i)}})},
                            {"nonce", static_cast<std::int64_t>(i)},
                            {"sig", std::string(64, 'f')}})},
       {"endpoint", static_cast<std::int64_t>(0)}});
}

struct EchoCost {
  double wall_seconds = 0;  // loopback ping-pong time
  double cpu_seconds = 0;   // client-process CPU, the driving cost
  std::size_t calls = 0;

  void operator+=(const EchoCost& other) {
    wall_seconds += other.wall_seconds;
    cpu_seconds += other.cpu_seconds;
    calls += other.calls;
  }
  double wall_tps() const { return calls / std::max(1e-9, wall_seconds); }
  double per_core_tps() const { return calls / std::max(1e-9, cpu_seconds); }
};

// Serves the echo method from a forked child until killed, so the parent's
// getrusage sees ONLY client-side CPU — the driving cost, which is what
// bounds how hard one evaluation host can push a remote SUT. (The paper's
// testbed keeps client and SUT on separate VMs for the same reason.)
pid_t fork_echo_server(std::uint16_t& port_out) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return -1;
  pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipefd[0]);
    auto dispatcher = std::make_shared<rpc::Dispatcher>();
    dispatcher->register_method("echo", [](const json::Value& params) { return params; });
    rpc::TcpServer server(dispatcher, /*port=*/0, /*workers=*/1);
    auto zero_faults = std::make_shared<fault::FaultInjector>(fault::FaultPlan{});
    server.install_fault_injector(zero_faults);
    std::uint16_t port = server.port();
    (void)!::write(pipefd[1], &port, sizeof(port));
    ::close(pipefd[1]);
    for (;;) ::pause();  // parent SIGKILLs when done
  }
  ::close(pipefd[1]);
  std::uint16_t port = 0;
  ssize_t got = pid > 0 ? ::read(pipefd[0], &port, sizeof(port)) : 0;
  ::close(pipefd[0]);
  if (got != static_cast<ssize_t>(sizeof(port))) return -1;
  port_out = port;
  return pid;
}

// Client-process CPU seconds (user + system, every thread). The echo server
// lives in a forked child, so the delta across a run is the pure driving
// cost — the "per core" denominator.
double cpu_seconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Cost of `total` echo round trips in call_batch chunks of `chunk`,
// through a Retryer with a full retry budget (never fires: no faults drawn,
// but every call pays the policy layer's bookkeeping). With trace_every > 0
// every trace_every-th batch carries a trace context (the driver's
// run-realistic sampling shape), so the frame ships the kTracedRequest
// prefix and the server records decode/queue/handler spans for it.
EchoCost echo_throughput(rpc::TcpChannel& channel, std::size_t total, std::size_t chunk,
                         std::size_t trace_every = 0) {
  // Build every batch up front: the timed region is the wire path (encode,
  // send, dispatch, reply, decode), not workload generation.
  std::vector<std::vector<rpc::BatchCall>> batches;
  batches.reserve(total / chunk + 1);
  for (std::size_t i = 0; i < total; i += chunk) {
    std::vector<rpc::BatchCall> calls;
    calls.reserve(chunk);
    for (std::size_t j = i; j < std::min(total, i + chunk); ++j) {
      calls.push_back({"echo", echo_params(j)});
    }
    batches.push_back(std::move(calls));
  }
  rpc::Retryer retryer(rpc::RetryPolicy::standard(4));
  static std::uint64_t next_trace_id = 1;
  double cpu_before = cpu_seconds();
  util::Stopwatch watch(util::SteadyClock::shared());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    rpc::CallOptions opts;
    if (trace_every != 0 && b % trace_every == 0) {
      opts.trace.trace_id = next_trace_id++;
      opts.trace.span_id = opts.trace.trace_id;
    }
    // Consume-and-drop per batch, the way a driver worker does: reply trees
    // are freed inside the window, on the thread that decoded them.
    std::vector<rpc::BatchReply> replies =
        retryer.run([&] { return channel.call_batch(batches[b], opts); });
    for (const rpc::BatchReply& reply : replies) reply.take();
  }
  EchoCost cost;
  cost.calls = total;
  cost.wall_seconds = watch.elapsed_seconds();
  cost.cpu_seconds = cpu_seconds() - cpu_before;
  return cost;
}

core::Deployment deploy_tcp_neuchain(std::size_t pool_capacity) {
  json::Object spec;
  spec["kind"] = "neuchain";
  spec["name"] = "sut";
  spec["transport"] = "tcp";
  spec["block_interval_ms"] = 25;
  spec["max_block_txs"] = 4000;
  spec["pool_capacity"] = static_cast<std::int64_t>(pool_capacity);
  spec["smallbank_accounts_per_shard"] = 1000;
  spec["initial_checking"] = 1000000;
  spec["initial_savings"] = 1000000;
  json::Object plan;
  plan["chains"] = json::Value(json::Array{json::Value(std::move(spec))});
  return core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
}

}  // namespace

int main() {
  const std::size_t rpc_txs = bench::full_scale() ? 20000 : 4000;
  const std::size_t probe_txs = bench::full_scale() ? 20000 : 4000;
  report::CsvWriter csv({"layer", "shape", "param", "tps"});

  {
    core::Deployment deployment = deploy_tcp_neuchain(/*pool_capacity=*/200000);
    auto& sut = deployment.at("sut");
    std::printf("== RPC layer: %zu chain.submit calls over one TCP connection ==\n", rpc_txs);
    // Distinct seeds so the three shapes submit distinct tx ids (resubmitting
    // an id is rejected by the pool).
    double single = submit_singles(*sut.connect(), signed_txs(sut, rpc_txs, 21));
    std::printf("  blocking singles              %8.0f tps\n", single);
    csv.add_row({"rpc", "single", "1", std::to_string(single)});
    for (std::size_t window : {8, 32}) {
      double tps = submit_pipelined(*sut.connect(), signed_txs(sut, rpc_txs, 100 + window),
                                    window);
      std::printf("  pipelined window=%-4zu         %8.0f tps  (%.2fx)\n", window, tps,
                  tps / single);
      csv.add_row({"rpc", "pipelined", std::to_string(window), std::to_string(tps)});
    }
    for (std::size_t chunk : {8, 32}) {
      double tps =
          submit_batched(*sut.connect(), signed_txs(sut, rpc_txs, 200 + chunk), chunk);
      std::printf("  call_batch chunk=%-4zu         %8.0f tps  (%.2fx)\n", chunk, tps,
                  tps / single);
      csv.add_row({"rpc", "batch", std::to_string(chunk), std::to_string(tps)});
    }
  }

  // Codec head-to-head: identical echo calls, identical Dispatcher, one
  // connection each — only the wire encoding differs. Retry armed and a
  // zero-probability fault injector installed on server and channels, so
  // the ratio reflects what a policy-laden production path would see.
  const std::size_t codec_calls = bench::full_scale() ? 200000 : 40000;
  const char* chunk_env = std::getenv("HAMMER_CODEC_CHUNK");
  const std::size_t codec_chunk = chunk_env ? std::strtoul(chunk_env, nullptr, 10) : 64;
  std::printf("== RPC codec: %zu echo calls, chunk=%zu, retry+fault layers armed ==\n",
              codec_calls, codec_chunk);
  {
    std::uint16_t echo_port = 0;
    pid_t server_pid = fork_echo_server(echo_port);
    if (server_pid < 0) {
      std::fprintf(stderr, "failed to fork echo server, skipping codec section\n");
      return 1;
    }
    auto zero_faults = std::make_shared<fault::FaultInjector>(fault::FaultPlan{});

    rpc::ClientConfig json_cfg;
    json_cfg.codec = rpc::CodecPreference::kJsonOnly;
    json_cfg.retry = rpc::RetryPolicy::standard(4);
    rpc::TcpChannel json_chan("127.0.0.1", echo_port, json_cfg);
    json_chan.install_fault_injector(zero_faults);

    rpc::ClientConfig binary_cfg;  // kBinaryPreferred
    binary_cfg.retry = rpc::RetryPolicy::standard(4);
    rpc::TcpChannel binary_chan("127.0.0.1", echo_port, binary_cfg);
    binary_chan.install_fault_injector(zero_faults);

    // Warm both connections (and fault the run loudly if negotiation chose
    // the wrong codec — the comparison would be meaningless).
    HAMMER_CHECK(json_chan.codec() == rpc::wire::WireCodec::kJson);
    HAMMER_CHECK(binary_chan.codec() == rpc::wire::WireCodec::kBinary);
    echo_throughput(json_chan, 2000, codec_chunk);
    echo_throughput(binary_chan, 2000, codec_chunk);

    // Interleave short rounds of each codec: on a shared host the absolute
    // rate drifts minute to minute, but paired rounds see the same weather,
    // so the RATIO of accumulated CPU stays stable.
    const std::size_t kRounds = 8;
    const std::size_t per_round = codec_calls / kRounds;
    EchoCost json_cost, binary_cost;
    for (std::size_t round = 0; round < kRounds; ++round) {
      json_cost += echo_throughput(json_chan, per_round, codec_chunk);
      binary_cost += echo_throughput(binary_chan, per_round, codec_chunk);
    }
    // The per-core ratio is the codec's real multiplier: wall time on
    // loopback is mostly ping-pong scheduling both codecs pay identically,
    // while CPU seconds are what bounds a driving host at scale.
    double speedup = binary_cost.per_core_tps() / json_cost.per_core_tps();
    std::printf("  json codec                    %8.0f calls/s  (%8.0f per core)\n",
                json_cost.wall_tps(), json_cost.per_core_tps());
    std::printf("  binary codec                  %8.0f calls/s  (%8.0f per core, %.2fx)\n",
                binary_cost.wall_tps(), binary_cost.per_core_tps(), speedup);
    csv.add_row({"rpc_codec", "json", std::to_string(codec_chunk),
                 std::to_string(json_cost.per_core_tps())});
    csv.add_row({"rpc_codec", "binary", std::to_string(codec_chunk),
                 std::to_string(binary_cost.per_core_tps())});
    csv.add_row({"rpc_codec", "binary_speedup", std::to_string(codec_chunk),
                 std::to_string(speedup)});

    // Tracing overhead: the same binary-codec rounds with distributed
    // tracing armed at the driver's run-realistic sampling (every 8th batch
    // ships a trace context; unsampled batches pay one branch) vs tracing
    // off on the same connection. CI floors the per-core ratio at 0.95 —
    // the observability layer may not cost more than 5%.
    EchoCost traced_cost, untraced_cost;
    for (std::size_t round = 0; round < kRounds; ++round) {
      untraced_cost += echo_throughput(binary_chan, per_round, codec_chunk);
      traced_cost += echo_throughput(binary_chan, per_round, codec_chunk, /*trace_every=*/8);
    }
    double trace_ratio = traced_cost.per_core_tps() / untraced_cost.per_core_tps();
    std::printf("  tracing off                   %8.0f calls/s  (%8.0f per core)\n",
                untraced_cost.wall_tps(), untraced_cost.per_core_tps());
    std::printf("  tracing armed (1 in 8)        %8.0f calls/s  (%8.0f per core, %.3fx)\n",
                traced_cost.wall_tps(), traced_cost.per_core_tps(), trace_ratio);
    csv.add_row({"rpc_codec", "untraced", std::to_string(codec_chunk),
                 std::to_string(untraced_cost.per_core_tps())});
    csv.add_row({"rpc_codec", "traced", std::to_string(codec_chunk),
                 std::to_string(traced_cost.per_core_tps())});
    csv.add_row({"rpc_codec", "trace_overhead_ratio", std::to_string(codec_chunk),
                 std::to_string(trace_ratio)});
    ::kill(server_pid, SIGKILL);
    ::waitpid(server_pid, nullptr, 0);
  }

  std::printf("== Driver layer: peak probe over TCP, submit_batch_size 1 vs 16 ==\n");
  for (std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    core::Deployment deployment = deploy_tcp_neuchain(/*pool_capacity=*/200000);
    auto& sut = deployment.at("sut");
    core::DriverOptions options;
    options.worker_threads = 2;
    options.submit_batch_size = batch;
    core::RunResult result;
    std::thread probe([&] {
      result = core::run_peak_probe(
          core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                   sut.make_adapters(1)[0]),
          util::SteadyClock::shared(), options, bench::smallbank_workload(sut, probe_txs));
    });
    // One live scrape while the probe is in flight — what a Prometheus pull
    // against the SUT port would see mid-run.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    try {
      json::Value snap = telemetry::scrape_snapshot(*sut.connect());
      std::printf("  [scrape @100ms] submitted=%.0f inflight=%.0f rpc_reqs=%.0f blocks=%.0f\n",
                  snap.at("hammer_driver_submitted_total").as_double(),
                  snap.at("hammer_driver_inflight").as_double(),
                  snap.at("hammer_rpc_server_requests_total").as_double(),
                  snap.at("hammer_chain_blocks_sealed_total").as_double());
    } catch (const Error& e) {
      std::printf("  [scrape @100ms] failed: %s\n", e.what());
    }
    probe.join();
    std::printf("  submit_batch_size=%-3zu  %8.0f tps  (committed %llu/%llu, unmatched %llu)\n",
                batch, result.tps, static_cast<unsigned long long>(result.committed),
                static_cast<unsigned long long>(result.submitted),
                static_cast<unsigned long long>(result.unmatched));
    csv.add_row({"driver", "peak_probe", std::to_string(batch), std::to_string(result.tps)});
  }

  // Retry-policy overhead check: the policy-driven call surface with a full
  // retry budget but zero faults must cost nothing measurable vs the bare
  // path above (the per-call price is one branch until something throws).
  std::printf("== Driver layer: retry policy armed, no faults injected ==\n");
  {
    core::Deployment deployment = deploy_tcp_neuchain(/*pool_capacity=*/200000);
    auto& sut = deployment.at("sut");
    rpc::ClientConfig adapter_config;
    adapter_config.retry = rpc::RetryPolicy::standard(4);
    core::DriverOptions options;
    options.worker_threads = 2;
    options.submit_batch_size = 16;
    core::HammerDriver driver(
        core::SutCluster::single(sut.make_adapters(2, adapter_config), sut.make_adapters(1)[0]),
        util::SteadyClock::shared(), options);
    core::RunResult result = driver.run(bench::smallbank_workload(sut, probe_txs), nullptr);
    std::printf("  retries-armed batch=16 %8.0f tps  p50=%.2fms  (retries taken: %llu)\n",
                result.tps, static_cast<double>(result.latency.percentile(50)) / 1000.0,
                static_cast<unsigned long long>(result.retries));
    csv.add_row({"driver", "retry_armed", "16", std::to_string(result.tps)});
  }

  bench::save_csv(csv, "tcp_pipeline.csv");
  return 0;
}
