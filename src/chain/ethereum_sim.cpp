#include "chain/ethereum_sim.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::chain {

namespace {
// First 8 bytes of a digest as a big-endian integer (the PoW "quality").
std::uint64_t digest_prefix(const crypto::Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}
}  // namespace

EthereumSim::EthereumSim(ChainConfig config, std::shared_ptr<util::Clock> clock)
    : Blockchain(std::move(config), std::move(clock)) {
  HAMMER_CHECK_MSG(config_.num_shards == 1, "EthereumSim is non-sharded");
  HAMMER_CHECK(config_.hash_rate > 0);
  // Expected hashes per block = hash_rate * interval.
  auto initial = static_cast<std::uint64_t>(config_.hash_rate * config_.block_interval_ms / 1000);
  difficulty_.store(std::max<std::uint64_t>(initial, 16));
}

EthereumSim::~EthereumSim() { stop(); }

void EthereumSim::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  miner_ = std::thread([this] { mine_loop(); });
}

void EthereumSim::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  pools_[0]->close();
  if (miner_.joinable()) miner_.join();
}

void EthereumSim::with_state(const std::function<void(StateStore&)>& fn) { fn(*states_[0]); }

std::optional<std::uint64_t> EthereumSim::mine(const BlockHeader& header) {
  const std::uint64_t difficulty = difficulty_.load(std::memory_order_relaxed);
  const std::uint64_t target = UINT64_MAX / std::max<std::uint64_t>(difficulty, 1);
  // Pre-serialize everything except the nonce.
  BlockHeader h = header;
  h.nonce = 0;
  std::string base = h.to_json().dump();

  constexpr std::uint64_t kBatch = 128;
  std::uint64_t nonce = 0;
  for (;;) {
    for (std::uint64_t i = 0; i < kBatch; ++i, ++nonce) {
      crypto::Digest d =
          crypto::Sha256().update(base).update(std::to_string(nonce)).finish();
      if (digest_prefix(d) < target) return nonce;
    }
    if (!running_.load(std::memory_order_relaxed)) return std::nullopt;
    // Throttle to the simulated hash rate.
    auto batch_time = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 * static_cast<double>(kBatch) /
                                  static_cast<double>(config_.hash_rate)));
    clock_->sleep_for(batch_time);
  }
}

void EthereumSim::mine_loop() {
  util::TimePoint last_sealed = clock_->now();
  while (running_.load()) {
    maybe_stall_block_production(0);
    std::vector<PooledTx> txs = pools_[0]->drain(config_.max_block_txs);

    Block block;
    block.receipts.reserve(txs.size());
    for (PooledTx& entry : txs) {
      auto [rw_set, result] = execute(*states_[0], entry.tx);
      TxReceipt receipt;
      receipt.tx_id = std::move(entry.id);
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
    block.header.height = parent ? parent->header.height + 1 : 1;
    block.header.parent_hash = parent ? parent->header.hash() : std::string(64, '0');
    block.header.merkle_root = Block::compute_merkle_root(block.receipts);
    block.header.producer = "miner-0";

    std::optional<std::uint64_t> nonce = mine(block.header);
    if (!nonce) return;  // stopped
    block.header.nonce = *nonce;
    block.header.timestamp_us = clock_->now_us();
    ledgers_[0]->append(std::move(block));

    // Difficulty retarget toward the configured interval (clamped so one
    // lucky/unlucky block cannot destabilize the cadence).
    util::TimePoint now = clock_->now();
    auto actual_ms = std::chrono::duration_cast<std::chrono::milliseconds>(now - last_sealed).count();
    last_sealed = now;
    double ratio = static_cast<double>(config_.block_interval_ms) /
                   static_cast<double>(std::max<std::int64_t>(actual_ms, 1));
    ratio = std::clamp(ratio, 0.5, 2.0);
    auto current = static_cast<double>(difficulty_.load());
    difficulty_.store(
        std::max<std::uint64_t>(static_cast<std::uint64_t>(current * ratio), 16));
  }
}

}  // namespace hammer::chain
