#include "chain/neuchain_sim.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace hammer::chain {

NeuchainSim::NeuchainSim(ChainConfig config, std::shared_ptr<util::Clock> clock)
    : Blockchain(std::move(config), std::move(clock)) {
  HAMMER_CHECK_MSG(config_.num_shards == 1, "NeuchainSim is non-sharded");
}

NeuchainSim::~NeuchainSim() { stop(); }

void NeuchainSim::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  epoch_thread_ = std::thread([this] { epoch_loop(); });
}

void NeuchainSim::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  pools_[0]->close();
  if (epoch_thread_.joinable()) epoch_thread_.join();
}

void NeuchainSim::with_state(const std::function<void(StateStore&)>& fn) { fn(*states_[0]); }

void NeuchainSim::epoch_loop() {
  const auto epoch = std::chrono::milliseconds(config_.block_interval_ms);
  util::TimePoint next_epoch = clock_->now() + epoch;
  while (running_.load()) {
    clock_->sleep_until(next_epoch);
    next_epoch += epoch;

    std::vector<PooledTx> txs = pools_[0]->drain(config_.max_block_txs);
    if (txs.empty()) continue;  // Neuchain seals no empty blocks
    maybe_stall_block_production();

    // Deterministic order: every block server sorts the epoch identically.
    std::vector<std::pair<std::string, std::size_t>> order;
    order.reserve(txs.size());
    for (std::size_t i = 0; i < txs.size(); ++i) order.emplace_back(std::move(txs[i].id), i);
    std::sort(order.begin(), order.end());

    Block block;
    block.receipts.reserve(txs.size());
    for (auto& [id, index] : order) {
      const Transaction& tx = txs[index].tx;
      auto [rw_set, result] = execute(*states_[0], tx);
      TxReceipt receipt;
      receipt.tx_id = std::move(id);
      if (result.ok) {
        states_[0]->apply(rw_set);
        receipt.status = TxStatus::kCommitted;
      } else {
        receipt.status = TxStatus::kInvalid;
        receipt.detail = result.error;
      }
      block.receipts.push_back(std::move(receipt));
    }
    charge_commit_cost(txs.size());

    std::shared_ptr<const Block> parent = ledgers_[0]->latest();
    block.header.parent_hash = parent ? parent->header.hash() : std::string(64, '0');
    block.header.merkle_root = Block::compute_merkle_root(block.receipts);
    block.header.producer = "epoch-server";
    block.header.timestamp_us = clock_->now_us();
    ledgers_[0]->append(std::move(block));
  }
}

}  // namespace hammer::chain
