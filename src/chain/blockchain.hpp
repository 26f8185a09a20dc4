// Blockchain interface shared by the four SUT simulators plus the common
// per-shard machinery (pool, state, ledger) and the generic JSON-RPC
// binding the adapter layer talks to.
//
// The simulators stand in for real deployments (see DESIGN.md §1); latency
// and throughput behaviour is shaped by each chain's consensus structure
// plus a configurable per-transaction commit cost that models the remote
// cluster's execution/disk/network time without burning local CPU.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/contracts.hpp"
#include "chain/state.hpp"
#include "chain/txpool.hpp"
#include "chain/types.hpp"
#include "fault/fault.hpp"
#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"
#include "util/random.hpp"

namespace hammer::chain {

struct ChainConfig {
  std::string name = "chain";       // instance name (RPC "chain.info")
  std::uint32_t num_shards = 1;
  std::size_t pool_capacity = 50000;
  std::size_t max_block_txs = 500;
  std::int64_t block_interval_ms = 100;  // PoW target / batch timeout / epoch
  bool verify_signatures = true;
  // Serial commit-path cost per transaction, modelling the paper's remote
  // 2-vCPU cluster (slept, not burned, so the local core stays free for the
  // evaluation framework under test).
  std::int64_t commit_cost_us = 0;
  // Per-transaction request-admission cost at ONE RPC endpoint (slept on
  // the serving worker thread, like commit_cost_us). A node with a fixed
  // vCPU budget can only admit so many submissions per second; with
  // `"endpoints": n` each endpoint pays this independently, so driving the
  // whole cluster scales admission capacity n-fold while funnelling through
  // one node saturates it — the single-target shape SutCluster removes.
  std::int64_t ingress_cost_us = 0;
  std::uint64_t seed = 42;

  // Ethereum-only: simulated aggregate hash rate (hashes/second).
  std::int64_t hash_rate = 200000;
  // Fabric-only: endorsing peers per transaction.
  std::uint32_t endorsers = 2;

  static ChainConfig from_json(const json::Value& v);
  json::Value to_json() const;
};

// Append-only per-shard chain of sealed blocks.
class Ledger {
 public:
  std::uint64_t height() const;
  std::shared_ptr<const Block> at(std::uint64_t height) const;  // nullptr when absent
  std::shared_ptr<const Block> latest() const;
  void append(Block block);
  std::uint64_t committed_tx_count() const;

  // Per-transaction lookup (Ethereum's getTransactionReceipt equivalent);
  // what interactive-testing frameworks poll per transaction.
  struct TxLocation {
    std::uint64_t height = 0;
    TxReceipt receipt;
  };
  std::optional<TxLocation> find_tx(const std::string& tx_id) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const Block>> blocks_;
  std::unordered_map<std::string, TxLocation> tx_index_;
  std::uint64_t committed_ = 0;
};

class Blockchain {
 public:
  Blockchain(ChainConfig config, std::shared_ptr<util::Clock> clock);
  virtual ~Blockchain() = default;

  Blockchain(const Blockchain&) = delete;
  Blockchain& operator=(const Blockchain&) = delete;

  virtual std::string kind() const = 0;  // "ethereum" / "fabric" / ...
  virtual void start() = 0;
  virtual void stop() = 0;

  const ChainConfig& config() const { return config_; }
  std::uint32_t num_shards() const { return config_.num_shards; }

  // Routes the transaction to its shard pool (hash of the sender); returns
  // the transaction id. Throws RejectedError on overload or bad signature.
  virtual std::string submit(Transaction tx);

  // Endpoint-tagged submission: the RPC surface of endpoint `endpoint` (of
  // `total_endpoints`) received this transaction. Charges the endpoint's
  // ingress cost on the serving thread and counts a misroute when the
  // receiving endpoint does not own the transaction's shard (shard %
  // total_endpoints) — the extra hop a shard-affine client avoids.
  std::string submit_via(std::uint32_t endpoint, std::uint32_t total_endpoints,
                         Transaction tx);

  // Submissions that arrived at a non-owning endpoint (lifetime count).
  std::uint64_t misrouted_submits() const { return misrouted_.load(); }

  // SUT-side fault hooks, consulted on the submit path (kSubmitReject,
  // kEndorseFail in FabricSim) and by the block producers (kBlockStall).
  // Install before start().
  void install_fault_injector(std::shared_ptr<fault::FaultInjector> faults) {
    faults_ = std::move(faults);
  }

  std::uint32_t shard_for_sender(const std::string& sender) const;

  std::uint64_t height(std::uint32_t shard) const;
  std::shared_ptr<const Block> block_at(std::uint32_t shard, std::uint64_t height) const;

  // Searches every shard's tx index; nullopt when not (yet) on chain.
  std::optional<Ledger::TxLocation> tx_receipt(const std::string& tx_id) const;

  // Read-only contract call against the committed state (no transaction).
  json::Value query(std::uint32_t shard, const std::string& contract, const std::string& op,
                    const json::Value& args) const;

  const StateStore& state(std::uint32_t shard) const;
  std::string state_digest(std::uint32_t shard) const;

  // Overridable so sharded simulators can fold in their own counters
  // (MeepoSim adds cross-shard relay totals and per-shard backlog).
  virtual json::Value stats() const;

 protected:
  // Shared execution path: runs the contract, returns the rw-set + result.
  std::pair<ReadWriteSet, ExecResult> execute(const StateStore& state,
                                              const Transaction& tx) const;

  // Sleeps the configured serial commit cost for `tx_count` transactions.
  void charge_commit_cost(std::size_t tx_count);

  // Admission, shared by every submit path: runs the submit fault hooks,
  // builds the signing payload once, verifies the signature over it (when
  // verify_signatures is on) and returns the id of those same bytes. The id
  // is always derived here, never taken from the wire. Throws RejectedError
  // on a bad signature or when the plan's kSubmitReject fires (a transient
  // refusal, retryable under RetryPolicy::on_rejected).
  std::string admit(const Transaction& tx) const;

  // Sleeps one configured stall when the plan's kBlockStall fires for
  // (shard, current height); block producer loops call this right before
  // sealing.
  void maybe_stall_block_production(std::uint32_t shard);

  ChainConfig config_;
  std::shared_ptr<fault::FaultInjector> faults_;  // set before start()
  std::shared_ptr<util::Clock> clock_;
  std::shared_ptr<const ContractRegistry> registry_;
  std::vector<std::unique_ptr<TxPool>> pools_;     // one per shard
  std::vector<std::unique_ptr<StateStore>> states_;  // one per shard
  std::vector<std::unique_ptr<Ledger>> ledgers_;   // one per shard
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> misrouted_{0};  // endpoint-tagged submits off-shard
};

// Exposes a chain over the generic JSON-RPC surface:
//   chain.info    -> {name, kind, shards}
//   chain.submit  {tx}                 -> {tx_id}
//   chain.height  {shard}              -> {height}
//   chain.block   {shard, height}      -> block JSON (error when absent)
//   chain.query   {shard, contract, op, args} -> contract return value
//   chain.stats                        -> counters
//   chain.receipts {tx_ids: [...]}     -> {receipts: [{found, height, status}...]}
//   chain.shard_for {sender}           -> {shard} (the SUT's own routing fn)
//   endpoint.info                      -> {endpoint, endpoints, shards: [...]}
//
// `endpoint`/`total_endpoints` tag this dispatcher as ONE RPC surface of a
// multi-endpoint deployment: chain.submit runs endpoint-tagged (ingress
// cost + misroute accounting) and endpoint.info reports the shard set this
// surface owns (shard % total_endpoints == endpoint). The defaults describe
// the classic single-endpoint SUT and change nothing.
void bind_chain_rpc(std::shared_ptr<Blockchain> chain, rpc::Dispatcher& dispatcher,
                    std::uint32_t endpoint = 0, std::uint32_t total_endpoints = 1);

}  // namespace hammer::chain
