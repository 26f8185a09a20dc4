// BLOCKBENCH macro grid — the cross-workload comparison surface the paper
// inherits from BLOCKBENCH (YCSB kv + SmallBank macro benchmarks, plus the
// DoNothing / CPUHeavy / IOHeavy micro set) run against each simulated
// chain. Every cell drives a closed-loop burst with Zipfian key choice
// (skew is the point: contention is what separates the execution models)
// and reports TPS, p50/p99 latency and the abort rate.
//
// Expected shape:
//   - neuchain (deterministic ordering, no per-block cap pressure at this
//     scale) posts the highest TPS on every scenario;
//   - fabric's order-validate pipeline turns skewed read-modify-write
//     pressure into MVCC read conflicts: the ycsb-kv cell must show a
//     NONZERO abort rate (enforced — this bench exits 1 otherwise), the
//     BLOCKBENCH "Fabric aborts under contention" result;
//   - the micro set brackets the contract-execution cost: donothing >=
//     ioheavy TPS for every chain.
//
// Artifact: bench_results/blockbench_grid.csv
#include <algorithm>

#include "bench_util.hpp"
#include "chain/fabric_sim.hpp"
#include "chain/factory.hpp"

using namespace hammer;

namespace {

struct Scenario {
  std::string name;
  workload::WorkloadProfile profile;  // seed/client stamped per cell
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    // YCSB-A-with-RMW mix: half reads, 30% blind writes, 20% read-modify-
    // writes. The rmw share is what makes Fabric's MVCC visible under skew.
    Scenario s;
    s.name = "ycsb-kv";
    s.profile.contract = "kv";
    s.profile.op_mix = {{"get", 5.0}, {"put", 3.0}, {"read_modify_write", 2.0}};
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "smallbank";
    s.profile.contract = "smallbank";
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "donothing";
    s.profile.contract = "donothing";
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "cpuheavy";
    s.profile.contract = "cpuheavy";
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "ioheavy";
    s.profile.contract = "ioheavy";
    out.push_back(std::move(s));
  }
  return out;
}

struct Cell {
  std::string chain;
  std::string scenario;
  std::size_t txs = 0;
  core::RunResult result;
  std::uint64_t mvcc_conflicts = 0;

  double abort_rate() const {
    std::uint64_t total = result.committed + result.failed;
    return total == 0 ? 0.0 : static_cast<double>(result.failed) / static_cast<double>(total);
  }
};

}  // namespace

int main() {
  const bool full = bench::full_scale();

  std::printf("== BLOCKBENCH macro grid: chain x scenario, Zipfian keys ==\n");
  std::vector<Cell> cells;
  for (const std::string& kind : {std::string("meepo"), std::string("neuchain"),
                                  std::string("fabric")}) {
    for (const Scenario& scenario : scenarios()) {
      json::Object plan;
      plan["chains"] = json::Value(json::Array{bench::chain_spec(kind)});
      core::Deployment deployment =
          core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
      core::DeployedChain& sut = deployment.at(kind + "-sut");

      workload::WorkloadProfile profile = scenario.profile;
      profile.distribution = workload::Distribution::kZipfian;
      profile.zipf_theta = 0.9;
      profile.seed = 77;
      // rmw on a missing key is an application failure, not a conflict;
      // genesis-populate the kv keyspace so the abort column isolates MVCC.
      if (profile.contract == "kv") {
        chain::genesis_kv_keys(*sut.chain, sut.smallbank_accounts);
      }

      Cell cell;
      cell.chain = kind;
      cell.scenario = scenario.name;
      // IOHeavy writes micro_size keys per tx — keep its burst smaller so
      // the grid stays a few seconds per cell in quick mode.
      std::size_t txs = scenario.name == "ioheavy" ? (full ? 4000 : 1000) : (full ? 10000 : 2500);
      cell.txs = txs;
      workload::WorkloadFile wf =
          workload::generate_workload(profile, sut.smallbank_accounts, txs);

      core::DriverOptions options;
      options.worker_threads = 2;
      options.load_seed = profile.seed;
      core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(options.worker_threads),
                                                         sut.make_adapters(1)[0]),
                                util::SteadyClock::shared(), options);
      cell.result = driver.run(wf, nullptr);
      if (auto* fabric = dynamic_cast<chain::FabricSim*>(sut.chain.get())) {
        cell.mvcc_conflicts = fabric->mvcc_conflicts();
      }

      std::printf("  %-9s %-10s %6zu txs  %9.1f tps  p50 %7.2f ms  p99 %7.2f ms  "
                  "aborts %5.2f%%  mvcc %llu\n",
                  cell.chain.c_str(), cell.scenario.c_str(), cell.txs, cell.result.tps,
                  cell.result.latency.percentile(50) / 1000.0,
                  cell.result.latency.percentile(99) / 1000.0, 100.0 * cell.abort_rate(),
                  static_cast<unsigned long long>(cell.mvcc_conflicts));
      cells.push_back(std::move(cell));
    }
  }

  report::CsvWriter csv({"chain", "scenario", "txs", "committed", "failed", "tps", "p50_ms",
                         "p99_ms", "abort_rate", "mvcc_conflicts"});
  for (const Cell& cell : cells) {
    csv.add_row({cell.chain, cell.scenario, std::to_string(cell.txs),
                 std::to_string(cell.result.committed), std::to_string(cell.result.failed),
                 report::format_double(cell.result.tps, 1),
                 report::format_double(cell.result.latency.percentile(50) / 1000.0, 2),
                 report::format_double(cell.result.latency.percentile(99) / 1000.0, 2),
                 report::format_double(cell.abort_rate(), 4),
                 std::to_string(cell.mvcc_conflicts)});
  }
  bench::save_csv(csv, "blockbench_grid.csv");
  std::printf("(expected shape: fabric ycsb-kv aborts nonzero under skew; donothing >= "
              "ioheavy TPS per chain)\n");

  bool ok = true;
  auto find = [&](const std::string& chain, const std::string& scenario) -> const Cell& {
    for (const Cell& cell : cells) {
      if (cell.chain == chain && cell.scenario == scenario) return cell;
    }
    throw Error("missing grid cell " + chain + "/" + scenario);
  };
  const Cell& fabric_kv = find("fabric", "ycsb-kv");
  if (fabric_kv.mvcc_conflicts == 0) {
    std::printf("FAIL: fabric ycsb-kv recorded no MVCC conflicts under Zipfian rmw load\n");
    ok = false;
  }
  for (const std::string& kind : {std::string("meepo"), std::string("neuchain"),
                                  std::string("fabric")}) {
    if (find(kind, "donothing").result.tps < find(kind, "ioheavy").result.tps) {
      std::printf("FAIL: %s donothing TPS below ioheavy\n", kind.c_str());
      ok = false;
    }
    for (const Scenario& scenario : scenarios()) {
      const Cell& cell = find(kind, scenario.name);
      if (cell.result.committed == 0) {
        std::printf("FAIL: %s/%s committed nothing\n", kind.c_str(), scenario.name.c_str());
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
