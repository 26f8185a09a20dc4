// §V-C Correctness — Hammer's statistics vs SUT ground truth.
//
// Paper: 100,000 transactions at 600 TPS on Fabric; a post-run analysis of
// the peer logs matches Hammer's statistics exactly. Here the "peer log"
// is the simulator's ledger: after the run we re-scan every sealed block
// and require (a) every registered transaction is found with the same
// status Hammer recorded, (b) committed/failed counts match exactly, and
// (c) the Table II SQL pipeline agrees with the direct summary.
#include <map>

#include "bench_util.hpp"
#include "report/run_report.hpp"

using namespace hammer;

int main() {
  std::printf("=== §V-C correctness: Hammer statistics vs ledger ground truth ===\n");
  bool full = bench::full_scale();
  std::size_t total_txs = full ? 100000 : 15000;
  double rate = 600.0;  // paper's configured rate

  json::Value spec = bench::chain_spec("fabric");
  spec.as_object()["pool_capacity"] = 200000;
  // The paper drives Fabric at a sustained 600 TPS; keep the simulated
  // commit cost low enough that the configured rate is sustainable.
  spec.as_object()["commit_cost_us"] = 1000;
  json::Object plan;
  plan["chains"] = json::Value(json::Array{std::move(spec)});
  core::Deployment deployment =
      core::Deployment::deploy(json::Value(std::move(plan)), util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at("fabric-sut");

  auto cache = std::make_shared<kvstore::KvStore>(util::SteadyClock::shared());
  auto db = std::make_shared<minisql::Database>();
  core::DriverOptions options;
  options.worker_threads = 2;
  options.drain_timeout = std::chrono::seconds(60);
  options.metrics = std::make_shared<core::MetricsPipeline>(cache, db);

  workload::WorkloadFile wf = bench::smallbank_workload(sut, total_txs);
  auto duration = std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(total_txs) / rate * 1000.0));
  workload::ControlSequence plan_rate =
      workload::ControlSequence::constant(rate, duration, std::chrono::milliseconds(250));

  core::HammerDriver driver(core::SutCluster::single(sut.make_adapters(2), sut.make_adapters(1)[0]),
                            util::SteadyClock::shared(), options);
  core::RunResult result = driver.run(wf, &plan_rate);
  std::printf("driver: %s\n", result.summary().c_str());

  // --- ground truth: scan the ledger like the paper's peer-log script ---
  std::map<std::string, chain::TxStatus> ledger_status;
  std::uint64_t ledger_committed = 0;
  for (std::uint64_t h = 1; h <= sut.chain->height(0); ++h) {
    for (const chain::TxReceipt& r : sut.chain->block_at(0, h)->receipts) {
      ledger_status.emplace(r.tx_id, r.status);
      if (r.status == chain::TxStatus::kCommitted) ++ledger_committed;
    }
  }

  std::vector<core::TxRecord> records = driver.task_processor()->snapshot();
  std::size_t mismatched = 0;
  std::size_t missing = 0;
  std::uint64_t hammer_committed = 0;
  for (const core::TxRecord& record : records) {
    if (record.status == chain::TxStatus::kCommitted && record.completed) ++hammer_committed;
    auto it = ledger_status.find(record.tx_id);
    if (it == ledger_status.end()) {
      // Acceptable only if the submission was rejected before reaching the
      // pool (recorded invalid with no ledger entry).
      if (!(record.completed && record.status == chain::TxStatus::kInvalid)) ++missing;
      continue;
    }
    if (!record.completed || record.status != it->second) ++mismatched;
  }

  std::printf("ledger:  blocks=%llu committed=%llu distinct_txs=%zu\n",
              static_cast<unsigned long long>(sut.chain->height(0)),
              static_cast<unsigned long long>(ledger_committed), ledger_status.size());
  std::printf("check 1: per-tx status agreement     -> %zu mismatched, %zu missing  %s\n",
              mismatched, missing, (mismatched == 0 && missing == 0) ? "PASS" : "FAIL");
  bool counts_match = hammer_committed == ledger_committed;
  std::printf("check 2: committed count %llu vs ledger %llu -> %s\n",
              static_cast<unsigned long long>(hammer_committed),
              static_cast<unsigned long long>(ledger_committed),
              counts_match ? "PASS" : "FAIL");

  // --- Table II SQL pipeline agreement ---
  report::RunReport report = report::RunReport::build(*options.metrics, "correctness");
  std::printf("%s", report.rendered.c_str());
  minisql::ResultSet committed_rows = db->query(
      "SELECT COUNT(*) FROM Performance WHERE status = '1'");
  auto sql_committed =
      static_cast<std::uint64_t>(std::get<std::int64_t>(committed_rows.rows[0][0]));
  bool sql_match = sql_committed == hammer_committed;
  std::printf("check 3: SQL committed count %llu -> %s\n",
              static_cast<unsigned long long>(sql_committed), sql_match ? "PASS" : "FAIL");

  report::CsvWriter csv({"metric", "hammer", "ledger", "verdict"});
  csv.add_row({"committed", std::to_string(hammer_committed), std::to_string(ledger_committed),
               counts_match ? "PASS" : "FAIL"});
  csv.add_row({"status_mismatches", std::to_string(mismatched), "0",
               mismatched == 0 ? "PASS" : "FAIL"});
  bench::save_csv(csv, "correctness.csv");

  bool pass = mismatched == 0 && missing == 0 && counts_match && sql_match;
  std::printf("\npaper result: statistics match peer-log analysis -> %s\n",
              pass ? "REPRODUCED" : "NOT REPRODUCED");
  return pass ? 0 : 1;
}
