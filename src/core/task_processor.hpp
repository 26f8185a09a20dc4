// The paper's task-processing algorithm (Algorithm 1).
//
// Pending transactions live in a *vector list* ("We replaced the queue with
// a vector list for storing transaction IDs, due to the high overhead
// associated with enqueue and dequeue operations"): records are appended
// once and updated in place, never removed. A dynamically-expanded hash
// index maps transaction id -> vector position in O(1), and a Bloom filter
// in front of it short-circuits ids Hammer never submitted.
//
// When a new block is observed, its observation time is recorded FIRST and
// used as the commit time of every transaction in the block ("we first
// record the time of block creation, which is considered as the time when
// transactions are successfully committed ... Subsequently, we initiate the
// block fetching operation" — this keeps block-fetch bandwidth out of the
// measured latency).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "core/bloom.hpp"
#include "core/hash_index.hpp"
#include "telemetry/trace.hpp"

namespace hammer::core {

struct TxRecord {
  std::string tx_id;
  std::int64_t start_us = 0;
  std::int64_t end_us = -1;        // -1 = pending
  chain::TxStatus status = chain::TxStatus::kCommitted;
  bool completed = false;
  // Workload position, threaded through for lifecycle tracing.
  std::uint64_t ordinal = 0;
  // Algorithm 1 line 5: the record carries provenance for security checks
  // and per-client/server load monitoring.
  std::string client_id;
  std::string server_id;
  std::string chainname;
  std::string contractname;
};

class TaskProcessor {
 public:
  struct Options {
    std::size_t expected_txs = 100000;
    std::size_t initial_index_capacity = 1024;
    // Shard count for ShardedTaskProcessor (1 = the classic single-mutex
    // processor, bit-for-bit the paper's Algorithm 1). TaskProcessor itself
    // ignores this field.
    std::size_t shards = 1;
    // Optional lifecycle tracer: matched records emit included/detected
    // events for sampled ordinals. Not owned; must outlive the processor.
    telemetry::TxTracer* tracer = nullptr;
    // Record completion positions as they happen so pollers can stream
    // finished records out mid-run via drain_newly_completed() — the feed
    // for the metrics pipeline. Off by default: runs without a pipeline
    // shouldn't pay the extra bookkeeping.
    bool track_completions = false;
  };

  explicit TaskProcessor(Options options);

  // Algorithm 1 lines 4-8: store the record in the vector list, create the
  // index entry, update the Bloom filter. Returns the record's position.
  std::size_t register_tx(std::string tx_id, std::int64_t start_us,
                          const std::string& client_id, const std::string& server_id,
                          const std::string& chainname, const std::string& contractname,
                          std::uint64_t ordinal = 0);

  struct BlockOutcome {
    std::size_t matched = 0;        // records completed by this block
    std::size_t bloom_rejected = 0; // ids sifted out by the filter (line 15)
    std::size_t unknown = 0;        // passed the filter, absent from the index
    std::size_t duplicates = 0;     // already-completed records seen again
  };

  // Algorithm 1 lines 10-20: apply one confirmed block. block_time_us is
  // the observation time recorded before the block body was fetched.
  // include_us, when >= 0, is the block's own seal timestamp; it feeds the
  // included-stage trace event (detection uses block_time_us) so the
  // breakdown can separate inclusion latency from polling lag.
  BlockOutcome on_block(std::int64_t block_time_us,
                        std::span<const chain::TxReceipt> receipts,
                        std::int64_t include_us = -1);

  // Same as on_block, restricted to the receipts at `indices` — the
  // per-shard application path of ShardedTaskProcessor (the block is
  // partitioned once, each shard consumes only its slice).
  BlockOutcome on_block_some(std::int64_t block_time_us,
                             std::span<const chain::TxReceipt> receipts,
                             std::span<const std::uint32_t> indices,
                             std::int64_t include_us = -1);

  // Marks a record as failed locally (submission rejected by the SUT).
  void mark_rejected(std::size_t position, std::int64_t end_us);

  std::size_t total_registered() const;
  std::size_t pending_count() const;

  // Snapshot of the vector list (copy; call after the run for metrics).
  std::vector<TxRecord> snapshot() const;

  // Appends a copy of every record completed since the last call to `out`
  // and clears the set. Only populated when Options::track_completions is
  // set. Returns the number of records appended.
  std::size_t drain_newly_completed(std::vector<TxRecord>& out);

  // Index health metrics for the ablation benches.
  std::uint64_t index_probe_steps() const;
  std::uint64_t index_expansions() const;
  double bloom_fill() const;

 private:
  // Algorithm 1 lines 11-20 for one receipt; caller holds mu_.
  void apply_receipt_locked(const chain::TxReceipt& receipt, std::int64_t block_time_us,
                            std::int64_t include_us, BlockOutcome& outcome);
  void flush_outcome_metrics(const BlockOutcome& outcome, std::uint64_t probe_delta);

  Options options_;
  mutable std::mutex mu_;
  std::vector<TxRecord> records_;  // the vector list
  HashIndex index_;
  BloomFilter bloom_;
  std::size_t completed_ = 0;
  std::vector<std::size_t> newly_completed_;  // positions since last drain
};

// K independent TaskProcessor shards keyed by tx-id hash. Registration and
// block application touch exactly one shard's mutex, so N per-target block
// pollers and M submit workers stop funnelling through a single lock — the
// cluster driving path's completion-tracking backend. With shards == 1 the
// behaviour (sets of completed/failed records, latency samples) is
// identical to the flat TaskProcessor, which the equivalence tests pin.
class ShardedTaskProcessor {
 public:
  explicit ShardedTaskProcessor(TaskProcessor::Options options);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(const std::string& tx_id) const {
    return hasher_(tx_id) % shards_.size();
  }

  // Returns an opaque handle (shard + per-shard position packed) accepted
  // by mark_rejected.
  std::size_t register_tx(std::string tx_id, std::int64_t start_us,
                          const std::string& client_id, const std::string& server_id,
                          const std::string& chainname, const std::string& contractname,
                          std::uint64_t ordinal = 0);

  // Partitions the block's receipts by tx-id hash and applies each slice to
  // its shard; outcomes are merged. Safe to call from many poller threads.
  TaskProcessor::BlockOutcome on_block(std::int64_t block_time_us,
                                       std::span<const chain::TxReceipt> receipts,
                                       std::int64_t include_us = -1);

  void mark_rejected(std::size_t handle, std::int64_t end_us);

  std::size_t total_registered() const;
  std::size_t pending_count() const;
  std::vector<TxRecord> snapshot() const;  // all shards, concatenated

  // Drains every shard's newly-completed set (see TaskProcessor).
  std::size_t drain_newly_completed(std::vector<TxRecord>& out);

  // Merged index-health diagnostics (sums; bloom_fill is the mean).
  std::uint64_t index_probe_steps() const;
  std::uint64_t index_expansions() const;
  double bloom_fill() const;

  // Per-shard stats (registered/pending/probe_steps/expansions/bloom_fill)
  // plus merged totals — lands in RunResult::processor.
  json::Value stats_json() const;

 private:
  std::vector<std::unique_ptr<TaskProcessor>> shards_;
  std::hash<std::string> hasher_;
};

}  // namespace hammer::core
