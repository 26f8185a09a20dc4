// Meepo-like sharded consortium chain simulator.
//
// Static sharding (the paper's Meepo setup): accounts hash to shards, each
// shard runs its own epoch-sealed ledger and state. Intra-shard
// transactions execute locally. Cross-shard SmallBank payments / token
// transfers follow Meepo's cross-call/cross-epoch pattern: the source
// shard debits and emits a relay credit that the destination shard applies
// at its next epoch — so a cross-shard transfer costs one extra epoch of
// latency, which is the behaviour a sharding-aware evaluation framework
// must tolerate (and the baselines in Fig. 7 cannot).
#pragma once

#include <deque>
#include <thread>

#include "chain/blockchain.hpp"

namespace hammer::chain {

class MeepoSim final : public Blockchain {
 public:
  MeepoSim(ChainConfig config, std::shared_ptr<util::Clock> clock);
  ~MeepoSim() override;

  std::string kind() const override { return "meepo"; }
  void start() override;
  void stop() override;

  void with_state(std::uint32_t shard, const std::function<void(StateStore&)>& fn);

  std::uint64_t cross_shard_count() const { return cross_shard_.load(); }

  // Relay credits parked at `shard` waiting for its next epoch.
  std::size_t relay_backlog(std::uint32_t shard) const;

  // Base counters plus the sharded view: cross-shard relay total and the
  // per-shard relay backlog (what a sharding-aware monitor watches).
  json::Value stats() const override;

 private:
  struct RelayCredit {
    std::string key;          // destination state key
    std::int64_t amount = 0;  // credit to apply
    std::string origin_tx;    // provenance for auditability
  };

  void epoch_loop(std::uint32_t shard);
  // Executes one transaction on `shard`; returns the receipt for `tx_id`.
  // Cross-shard transfers debit locally and enqueue a relay credit.
  TxReceipt execute_sharded(std::uint32_t shard, const Transaction& tx, std::string tx_id);
  void enqueue_relay(std::uint32_t shard, RelayCredit credit);
  void apply_relays(std::uint32_t shard);

  std::vector<std::unique_ptr<std::mutex>> relay_mu_;
  std::vector<std::deque<RelayCredit>> relay_queues_;
  std::atomic<std::uint64_t> cross_shard_{0};
  std::vector<std::thread> epoch_threads_;
};

}  // namespace hammer::chain
