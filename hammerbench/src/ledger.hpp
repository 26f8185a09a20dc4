// The layer ledger: replays a workload's own transactions on one thread
// through each layer's public function and reports ns/tx, bytes/tx and
// allocations/tx per layer:
//
//   generate   workload::Generator::next
//   sign       Transaction::sign_with (keys pre-derived)
//   id         Transaction::compute_id
//   json       to_json + dump / parse + from_json
//   wire       rpc::wire::encode_value / decode_value
//   verify     Transaction::verify_signature
//   execute    the SmallBank contract from ContractRegistry::standard()
//              against a seeded StateStore
//   seal       Block::compute_merkle_root per block
//   track      TaskProcessor::register_tx
//   detect     TaskProcessor::on_block
//   commit     MetricsPipeline::push_records + flush (write-behind path),
//              then the Table II queries
//
// Allocation counts come from the per-thread counters of the allocation
// hook, so they repeat exactly for one seed.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "workload/profile.hpp"

namespace hammer::bench {

struct LedgerResult {
  std::vector<Metric> metrics;
  std::vector<std::string> violations;  // replay outputs that were wrong
};

// Replays the first `count` transactions `profile` generates over
// `accounts`; execute results are grouped into blocks of `block_txs`.
LedgerResult run_ledger(const workload::WorkloadProfile& profile,
                        const std::vector<std::string>& accounts, std::size_t count,
                        std::size_t block_txs);

}  // namespace hammer::bench
