#include "core/baselines.hpp"

namespace hammer::core {

void BatchQueueProcessor::register_tx(std::string tx_id, std::int64_t start_us) {
  std::scoped_lock lock(mu_);
  queue_.push_back(Pending{std::move(tx_id), start_us});
}

std::size_t BatchQueueProcessor::on_block(std::int64_t block_time_us,
                                          std::span<const chain::TxReceipt> receipts) {
  std::scoped_lock lock(mu_);
  std::size_t matched = 0;
  for (const chain::TxReceipt& receipt : receipts) {
    // O(n) scan per receipt — the baseline's defining cost.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->tx_id == receipt.tx_id) {
        completed_.push_back(
            CompletedTx{std::move(it->tx_id), it->start_us, block_time_us, receipt.status});
        queue_.erase(it);
        ++matched;
        break;
      }
    }
  }
  return matched;
}

std::size_t BatchQueueProcessor::pending_count() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

std::vector<CompletedTx> BatchQueueProcessor::completed(std::size_t from) const {
  std::scoped_lock lock(mu_);
  if (from >= completed_.size()) return {};
  return std::vector<CompletedTx>(completed_.begin() + static_cast<std::ptrdiff_t>(from),
                                  completed_.end());
}

std::vector<CompletedTx> BatchQueueProcessor::pending_snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<CompletedTx> out;
  out.reserve(queue_.size());
  for (const Pending& p : queue_) {
    out.push_back(CompletedTx{p.tx_id, p.start_us, 0, chain::TxStatus::kInvalid});
  }
  return out;
}

}  // namespace hammer::core
