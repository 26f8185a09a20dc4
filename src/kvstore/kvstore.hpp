// In-memory key-value store standing in for the Redis cluster of the
// paper's architecture (Fig. 2): the driver caches transaction vector-list
// state here, and the metrics pipeline drains it into the minisql table
// store ("MySQL") for the visualization layer.
//
// Carries only the Redis subset the pipeline uses: a multi-field HSET
// with an optional dirty mark and TTL, the dirty-set drain, an expiry
// sweep, and HGETALL/EXISTS as the read side. Keys are sharded by hash
// across cache-line-padded, independently locked partitions so driver
// threads and the committer do not serialize on one mutex.
//
// Write-behind support: every shard keeps a *dirty set* — keys whose
// latest state has not yet been drained to the table store. Producers mark
// keys dirty (bounded per shard; overflow is reported so the caller can
// count dropped rows), and drain_dirty() empties each shard's set in turn,
// handing the live hash values to a callback and evicting them from the
// cache.
//
// Scaling model: `op_cost_us` charges a modeled per-command processing
// cost (slept, not burned, while the shard lock is held — the same idiom
// as the SUT's ingress cost in bench_cluster_scaleout) so the cache
// behaves like N single-threaded Redis instances: commands on one shard
// serialize, commands on different shards overlap, and the sharding
// speedup survives a one-core bench box. 0 (the default) disables the
// model entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/clock.hpp"

namespace hammer::kvstore {

using Hash = std::map<std::string, std::string>;

class KvStore {
 public:
  struct Options {
    std::size_t num_shards = 16;
    // Modeled per-command cost of the cache node, slept while the shard
    // lock is held. 0 disables (no sleep call at all).
    std::int64_t op_cost_us = 0;
    // Bound on each shard's dirty set: marks beyond it are refused and the
    // row is reported dropped (the write-behind backpressure policy).
    std::size_t dirty_capacity_per_shard = 1 << 16;
  };

  KvStore(std::shared_ptr<util::Clock> clock, Options options);
  explicit KvStore(std::shared_ptr<util::Clock> clock, std::size_t num_shards = 16);

  // Multi-field HSET: one lock acquisition (and one modeled command cost)
  // for the whole record. Optionally marks the key dirty in the same
  // critical section and/or arms a TTL (ttl > 0; pending records that
  // never complete age out of the cache instead of leaking).
  struct HsetManyResult {
    std::size_t created = 0;   // newly created fields
    bool dirty_marked = false; // key entered the shard's dirty set
    bool dirty_dropped = false;// dirty set full: the row will never drain
  };
  HsetManyResult hset_many(const std::string& key,
                           std::span<const std::pair<std::string, std::string>> fields,
                           bool mark_dirty = false, util::Duration ttl = util::Duration::zero());

  // Read side: the live hash (empty when absent or expired), and liveness.
  Hash hgetall(const std::string& key) const;
  bool exists(const std::string& key) const;

  // --- write-behind dirty sets ---
  // Total keys currently awaiting drain (relaxed; a live gauge).
  std::size_t dirty_count() const {
    return dirty_count_.load(std::memory_order_relaxed);
  }
  // Empties every shard's dirty set: each dirty key still live in the cache
  // is handed to fn and evicted. Shards are drained one at a time —
  // producers on other shards make progress — and each non-empty shard
  // round charges one modeled command cost (the committer's pipelined
  // HGETALL+DEL round trip). Returns keys drained.
  std::size_t drain_dirty(
      const std::function<void(const std::string& key, const Hash& fields)>& fn);

  // --- TTL eviction ---
  // Active sweep erasing every expired entry (lazy expiry still applies on
  // reads). The committer runs this once per drain round. Returns the
  // number of entries evicted.
  std::size_t evict_expired();

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    Hash value;
    std::optional<util::TimePoint> expires_at;
    bool dirty = false;  // present in the shard's dirty set
  };
  // Cache-line padded: neighbouring shard locks never share a line, so a
  // contended shard does not slow its neighbours by false sharing.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::vector<std::string> dirty;  // keys awaiting write-behind drain
  };

  Shard& shard_for(const std::string& key) const;
  bool expired(const Entry& entry) const;
  // Sleeps the modeled per-command cost; call with the shard lock held.
  void charge_op_cost() const;

  // Returns nullptr when absent or expired (erases lazily).
  Entry* find_live(Shard& shard, const std::string& key) const;

  std::shared_ptr<util::Clock> clock_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> dirty_count_{0};
};

}  // namespace hammer::kvstore
