// SutCluster: the multi-endpoint view of a System Under Test.
//
// The paper's Meepo evaluation is explicitly sharded, and sharding
// testbeds (BlockEmulator) expose one RPC endpoint per shard — so an
// evaluation framework that funnels every transaction through a single
// node measures the node, not the chain. A SutCluster holds N SutTargets
// (endpoint + channel-pooled adapter set + per-endpoint block poller
// adapter + owned shard set) and a pluggable RoutingPolicy decides which
// target each signed transaction is submitted through:
//
//   round_robin    — even spray, endpoint-agnostic (the BLOCKBENCH shape,
//                    N times over).
//   least_inflight — balance on each target's queued + unacknowledged
//                    backlog, so a slow or faulted endpoint sheds load.
//   shard          — shard-affine: hash the transaction's hot key with the
//                    SUT's own routing function and submit to the endpoint
//                    owning that shard, the way the real Meepo SDK pins
//                    senders to their shard to avoid the extra hop.
//
// The cluster is transport-agnostic (in-proc or TCP channels) and is what
// HammerDriver drives end-to-end; `SutCluster::single` wraps a one-endpoint
// adapter set.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapters/chain_adapter.hpp"
#include "chain/types.hpp"

namespace hammer::telemetry {
class Counter;
}

namespace hammer::core {

enum class RoutingKind { kRoundRobin, kLeastInFlight, kShardAffine };

// Accepts "round_robin", "least_inflight", "shard" (and "shard_affine").
RoutingKind routing_kind_from_string(const std::string& name);
const char* to_string(RoutingKind kind);

// One endpoint the cluster drives. Worker adapters are expected to share a
// channel pool (see DeployedChain::make_cluster); the poll adapter gets its
// own channel so receipt/block polling never queues behind submissions.
class SutTarget {
 public:
  SutTarget(std::size_t index,
            std::vector<std::shared_ptr<adapters::ChainAdapter>> worker_adapters,
            std::shared_ptr<adapters::ChainAdapter> poll_adapter,
            std::vector<std::uint32_t> shards);

  std::size_t index() const { return index_; }
  std::size_t worker_count() const { return worker_adapters_.size(); }
  adapters::ChainAdapter& worker_adapter(std::size_t slot) {
    return *worker_adapters_[slot % worker_adapters_.size()];
  }
  const std::vector<std::shared_ptr<adapters::ChainAdapter>>& worker_adapters() const {
    return worker_adapters_;
  }
  const std::shared_ptr<adapters::ChainAdapter>& poll_adapter() const { return poll_adapter_; }

  // Shards this endpoint owns (polls, and is the shard-affine home for).
  const std::vector<std::uint32_t>& shards() const { return shards_; }

  // Wire codec the worker channels negotiated with this endpoint ("binary",
  // "json") or "inproc" when there is no TCP wire — resolved once at
  // construction for run-log diagnostics and endpoint comparisons.
  const std::string& codec() const { return codec_; }

  // Offset of this endpoint's steady clock relative to the driver's,
  // measured by the poll channel's hello handshake (0 for in-process
  // endpoints). Surfaced beside codec() so run logs show per-endpoint skew.
  telemetry::ClockOffset clock_offset() const { return poll_adapter_->clock_offset(); }

  // Transactions routed here and not yet acknowledged by the endpoint
  // (queued client-side or on the wire) — the backlog signal least-in-flight
  // routing balances on.
  std::uint64_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  void add_in_flight(std::uint64_t n) { in_flight_.fetch_add(n, std::memory_order_relaxed); }
  void sub_in_flight(std::uint64_t n) { in_flight_.fetch_sub(n, std::memory_order_relaxed); }

  // Lifetime per-target counters; the driver differences them across a run
  // into RunResult::targets. Mirrored to the telemetry registry as
  // hammer_cluster_{submitted,completed,polled_blocks}_total{target="i"}.
  void count_submitted(std::uint64_t n);
  void count_completed(std::uint64_t n);
  void count_polled_blocks(std::uint64_t n);
  std::uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  std::uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }

 private:
  std::size_t index_;
  std::vector<std::shared_ptr<adapters::ChainAdapter>> worker_adapters_;
  std::shared_ptr<adapters::ChainAdapter> poll_adapter_;
  std::vector<std::uint32_t> shards_;
  std::string codec_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  // Registry series with this target's label, resolved once at construction.
  telemetry::Counter* submitted_metric_;
  telemetry::Counter* completed_metric_;
  telemetry::Counter* polled_metric_;
};

class SutCluster {
 public:
  explicit SutCluster(std::vector<std::unique_ptr<SutTarget>> targets);

  // Wraps pre-built single-endpoint adapters: worker adapters plus one
  // for the block poller. The lone target owns every shard.
  static std::shared_ptr<SutCluster> single(
      std::vector<std::shared_ptr<adapters::ChainAdapter>> worker_adapters,
      std::shared_ptr<adapters::ChainAdapter> poll_adapter);

  std::size_t size() const { return targets_.size(); }
  SutTarget& target(std::size_t i) { return *targets_[i]; }
  const SutTarget& target(std::size_t i) const { return *targets_[i]; }

  std::uint32_t total_shards() const { return total_shards_; }

  // The SUT's own routing function (the same sender hash the chain pools
  // by; remotely queryable as chain.shard_for — see ChainAdapter::shard_for).
  std::uint32_t shard_for_sender(const std::string& sender) const;

  // Target owning `shard`; targets' shard sets partition the chain.
  std::size_t owner_of_shard(std::uint32_t shard) const { return shard_owner_[shard]; }

 private:
  std::vector<std::unique_ptr<SutTarget>> targets_;
  std::uint32_t total_shards_ = 1;
  std::vector<std::size_t> shard_owner_;  // shard -> target index
};

// Picks the target each transaction is submitted through. route() is called
// once per transaction from the driver's routing stage; implementations
// must be cheap and thread-safe.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual std::size_t route(const chain::Transaction& tx, const SutCluster& cluster) = 0;
  virtual RoutingKind kind() const = 0;
};

std::unique_ptr<RoutingPolicy> make_routing_policy(RoutingKind kind);

}  // namespace hammer::core
