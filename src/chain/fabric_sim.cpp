#include "chain/fabric_sim.hpp"

#include "telemetry/registry.hpp"
#include "util/errors.hpp"

namespace hammer::chain {

FabricSim::FabricSim(ChainConfig config, std::shared_ptr<util::Clock> clock)
    : Blockchain(std::move(config), std::move(clock)) {
  HAMMER_CHECK_MSG(config_.num_shards == 1, "FabricSim is non-sharded");
  HAMMER_CHECK(config_.endorsers >= 1);
  for (std::uint32_t i = 0; i < config_.endorsers; ++i) {
    endorser_keys_.push_back(
        crypto::derive_keypair(config_.name + ":peer" + std::to_string(i)));
  }
}

FabricSim::~FabricSim() { stop(); }

void FabricSim::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  orderer_ = std::thread([this] { orderer_loop(); });
}

void FabricSim::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  pools_[0]->close();
  // Pass through order_mu_ first: an orderer past its wait predicate is then
  // blocked in wait() and cannot miss the notification (join() would hang).
  { std::scoped_lock lock(order_mu_); }
  order_cv_.notify_all();
  if (orderer_.joinable()) orderer_.join();
}

void FabricSim::with_state(const std::function<void(StateStore&)>& fn) { fn(*states_[0]); }

std::string FabricSim::submit(Transaction tx) {
  if (!running_.load()) throw RejectedError("chain is not running");
  EndorsedTx endorsed;
  endorsed.tx_id = admit(tx);
  if (faults_ && faults_->should(fault::FaultKind::kEndorseFail, tx.fault_key())) {
    throw RejectedError("injected endorsement failure: proposal responses do not match");
  }

  // Endorsement: simulate against committed state, capture the rw-set.
  auto [rw_set, result] = execute(*states_[0], tx);
  endorsed.rw_set = std::move(rw_set);
  endorsed.exec_ok = result.ok;
  endorsed.exec_error = result.error;

  // Each endorsing peer signs the proposal response (digest of tx id +
  // write set) — real signature work, like the peers' ECDSA.
  std::string response = endorsed.tx_id;
  for (const WriteEntry& w : endorsed.rw_set.writes) response += "|" + w.key + "=" + w.value;
  for (const crypto::KeyPair& peer : endorser_keys_) {
    endorsed.endorsements.push_back(crypto::sign(peer.priv, response));
  }
  endorsed.tx = std::move(tx);

  // Hand to the ordering service; its queue shares the pool's capacity
  // bound so overload rejects rather than queueing without limit.
  std::string tx_id = endorsed.tx_id;
  {
    std::scoped_lock lock(order_mu_);
    if (order_queue_.size() >= config_.pool_capacity) {
      throw RejectedError("ordering service backlog full");
    }
    order_queue_.push_back(std::move(endorsed));
  }
  order_cv_.notify_one();
  return tx_id;
}

void FabricSim::orderer_loop() {
  const auto batch_timeout = std::chrono::milliseconds(config_.block_interval_ms);
  while (running_.load()) {
    std::vector<EndorsedTx> batch;
    {
      std::unique_lock lock(order_mu_);
      order_cv_.wait(lock, [&] { return !running_.load() || !order_queue_.empty(); });
      if (!running_.load() && order_queue_.empty()) return;
    }
    // BatchTimeout starts at the first transaction of the batch.
    util::TimePoint deadline = clock_->now() + batch_timeout;
    for (;;) {
      {
        std::scoped_lock lock(order_mu_);
        while (!order_queue_.empty() && batch.size() < config_.max_block_txs) {
          batch.push_back(std::move(order_queue_.front()));
          order_queue_.pop_front();
        }
      }
      if (batch.size() >= config_.max_block_txs) break;
      if (clock_->now() >= deadline) break;
      if (!running_.load()) break;
      clock_->sleep_for(std::chrono::milliseconds(1));
    }
    if (!batch.empty()) {
      maybe_stall_block_production(0);
      seal_block(std::move(batch));
    }
  }
}

void FabricSim::seal_block(std::vector<EndorsedTx> batch) {
  Block block;
  block.receipts.reserve(batch.size());
  for (const EndorsedTx& endorsed : batch) {
    TxReceipt receipt;
    receipt.tx_id = endorsed.tx_id;
    if (!endorsed.exec_ok) {
      receipt.status = TxStatus::kInvalid;
      receipt.detail = endorsed.exec_error;
    } else {
      std::string conflict_key;
      if (states_[0]->validate_and_apply(endorsed.rw_set, &conflict_key)) {
        receipt.status = TxStatus::kCommitted;
      } else {
        receipt.status = TxStatus::kConflict;
        receipt.detail = "MVCC_READ_CONFLICT on " + conflict_key;
        mvcc_conflicts_.fetch_add(1, std::memory_order_relaxed);
        static telemetry::Counter& conflicts = telemetry::MetricRegistry::global().counter(
            "hammer_chain_mvcc_conflicts_total",
            "Order-validate MVCC read conflicts (Fabric sim)");
        conflicts.add(1);
      }
    }
    block.receipts.push_back(std::move(receipt));
  }
  charge_commit_cost(batch.size());

  std::shared_ptr<const Block> parent = ledgers_[0]->latest();
  block.header.parent_hash = parent ? parent->header.hash() : std::string(64, '0');
  block.header.merkle_root = Block::compute_merkle_root(block.receipts);
  block.header.producer = "orderer-0";
  block.header.timestamp_us = clock_->now_us();
  ledgers_[0]->append(std::move(block));
}

}  // namespace hammer::chain
