// Baseline completion-tracking strategies reimplemented from the paper's
// descriptions (§II-C), used as comparators in Fig. 7 and Fig. 9.
//
// BatchQueueProcessor — Blockbench-style batch testing: pending ids sit in
// a linked queue; every id parsed from a block is matched by walking the
// queue and the match is REMOVED ("extracts the transaction list from the
// contents of the acknowledgment block and removes the matching transaction
// list from the local queue"). Matching one block of m transactions against
// a queue of n pending entries costs O(n·m) — the complexity Hammer's hash
// index eliminates.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "chain/types.hpp"

namespace hammer::core {

struct CompletedTx {
  std::string tx_id;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  chain::TxStatus status = chain::TxStatus::kCommitted;
};

class BatchQueueProcessor {
 public:
  void register_tx(std::string tx_id, std::int64_t start_us);

  // Walks the queue once per receipt (linear scan + erase).
  std::size_t on_block(std::int64_t block_time_us,
                       std::span<const chain::TxReceipt> receipts);

  std::size_t pending_count() const;
  // Completions from position `from` on, in completion order (a copy, safe
  // while blocks are still being applied).
  std::vector<CompletedTx> completed(std::size_t from = 0) const;

  // Remaining queue entries (id + start time), for end-of-run accounting.
  std::vector<CompletedTx> pending_snapshot() const;

 private:
  struct Pending {
    std::string tx_id;
    std::int64_t start_us;
  };
  mutable std::mutex mu_;
  std::list<Pending> queue_;
  std::vector<CompletedTx> completed_;
};

}  // namespace hammer::core
