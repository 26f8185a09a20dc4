// Mixed-codec smoke: one JSON-only client and one binary-preferred client
// drive the SAME TcpServer concurrently. The server decides per frame, so a
// fleet upgrade can roll out the binary codec client-by-client; this check
// holds that invariant end to end — both clients negotiate what they asked
// for, see identical results for identical calls, and a driver run with a
// mixed adapter fleet loses nothing. Exits nonzero on any failure.
#include <cstdio>
#include <string>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "rpc/tcp.hpp"

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

  rpc::ClientConfig binary_cfg;  // default: kBinaryPreferred
  rpc::ClientConfig json_cfg;
  json_cfg.codec = rpc::CodecPreference::kJsonOnly;

  // Both clients hang off the one server; negotiation is per connection.
  auto binary_chan = std::dynamic_pointer_cast<rpc::TcpChannel>(sut.connect(binary_cfg));
  auto json_chan = std::dynamic_pointer_cast<rpc::TcpChannel>(sut.connect(json_cfg));
  if (!binary_chan || !json_chan) {
    std::fprintf(stderr, "FAIL: tcp transport did not hand back TcpChannels\n");
    return 1;
  }
  if (binary_chan->codec() != rpc::wire::WireCodec::kBinary) {
    std::fprintf(stderr, "FAIL: binary-preferred client negotiated %s\n",
                 rpc::wire::to_string(binary_chan->codec()));
    return 1;
  }
  if (json_chan->codec() != rpc::wire::WireCodec::kJson) {
    std::fprintf(stderr, "FAIL: json-only client negotiated %s\n",
                 rpc::wire::to_string(json_chan->codec()));
    return 1;
  }

  // Identical reads through both codecs must agree byte for byte.
  for (const char* method : {"chain.info", "chain.height", "endpoint.info"}) {
    json::Value a = binary_chan->call(method, json::object({{"shard", 0}}));
    json::Value b = json_chan->call(method, json::object({{"shard", 0}}));
    if (a.dump() != b.dump()) {
      std::fprintf(stderr, "FAIL: %s differs across codecs:\n  binary: %s\n  json:   %s\n",
                   method, a.dump().c_str(), b.dump().c_str());
      return 1;
    }
  }

  // A mixed fleet under real driver load: worker 0 speaks JSON, worker 1
  // speaks binary, the poller speaks binary. Nothing may be lost.
  workload::WorkloadProfile profile;
  profile.seed = 11;
  workload::WorkloadFile wf =
      workload::generate_workload(profile, sut.smallbank_accounts, 300);

  std::vector<std::shared_ptr<adapters::ChainAdapter>> workers;
  workers.push_back(std::make_shared<adapters::ChainAdapter>(json_chan, json_cfg));
  workers.push_back(std::make_shared<adapters::ChainAdapter>(binary_chan, binary_cfg));
  auto poller = std::make_shared<adapters::ChainAdapter>(sut.connect(binary_cfg), binary_cfg);

  core::DriverOptions options;
  options.worker_threads = 2;
  options.submit_batch_size = 8;
  core::RunResult result = core::run_peak_probe(core::SutCluster::single(workers, poller),
                                                util::SteadyClock::shared(), options, wf);

  std::printf("mixed codec probe: submitted=%llu committed=%llu unmatched=%llu tps=%.0f\n",
              static_cast<unsigned long long>(result.submitted),
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.unmatched), result.tps);
  if (result.submitted != 300 || result.unmatched != 0 || result.committed == 0) {
    std::fprintf(stderr, "FAIL: mixed-codec fleet lost transactions\n");
    return 1;
  }
  return 0;
}
