// Metrics pipeline (paper Fig. 2 right half): the driver's vector-list
// state is pushed into the Redis-like cache as hashes ("the server pushes
// the initialized vector list to the Redis cluster ... the driver will
// regularly update the vector list"), and a committer drains the cache into
// the MySQL-like Performance table that the visualization layer queries
// with the Table II SQL.
//
// One commit path: push_records() marks every completed record dirty, and a
// drain round empties the cache's dirty sets into batched multi-row inserts,
// so latency samples land in SQL while the run is still going. Pending
// (incomplete) records carry the pending TTL and age out of the cache if
// they never complete. `write_behind` only picks the thread that drains:
//   - true: the committer thread (start_committer()) wakes every
//     flush_interval, or early once the dirty backlog reaches
//     commit_batch_size. Without a started thread, rows wait for flush().
//   - false: the thread calling push_records() drains inline once the
//     backlog reaches commit_batch_size.
// Every drained row is committed in the same round — nothing sits in a
// private buffer — so the only data at risk is what the bounded dirty sets
// hold, and flush_and_stop() drains exactly that.
//
// Backpressure: the dirty sets are bounded per shard. A refused mark drops
// the row and counts it (hammer_store_rows_dropped_total) rather than
// blocking the driving path on its own measurement plumbing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/task_processor.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "util/histogram.hpp"

namespace hammer::core {

// Table II statements, verbatim modulo dialect (see minisql/parser.hpp).
extern const char* const kTpsSql;
extern const char* const kLatencySql;

struct MetricsOptions {
  // Drain on the committer thread instead of inline on the pushing thread.
  bool write_behind = false;
  // Rows per multi-row insert, and the dirty backlog that triggers an inline
  // drain or wakes the committer early.
  std::size_t commit_batch_size = 256;
  // Committer wake-up cadence while the backlog stays under the batch size.
  util::Duration flush_interval = std::chrono::milliseconds(50);
  // TTL armed on records cached before completion; a record that never
  // completes ages out of the cache instead of leaking. zero() = no expiry.
  util::Duration pending_ttl = util::Duration::zero();
};

class MetricsPipeline {
 public:
  MetricsPipeline(std::shared_ptr<kvstore::KvStore> cache,
                  std::shared_ptr<minisql::Database> db, MetricsOptions options = {});
  ~MetricsPipeline();  // flush_and_stop()

  MetricsPipeline(const MetricsPipeline&) = delete;
  MetricsPipeline& operator=(const MetricsPipeline&) = delete;

  // Driver -> cache: writes/updates one hash per record ("perf:<tx_id>").
  // Only completed records carry an end_time; they are marked dirty for the
  // drain (dirty-set overflow drops the row and counts it). Incomplete ones
  // get the pending TTL.
  void push_records(std::span<const TxRecord> records);

  // Spawns the committer thread; a no-op unless write_behind is set.
  void start_committer();
  // Synchronous drain on the caller's thread: commits every dirty row in
  // batched inserts and sweeps expired cache entries. Returns rows committed.
  std::size_t flush();
  // Graceful end-of-run drain: stops the committer thread (if any), then
  // flushes. Idempotent; returns the rows committed by the final flush.
  std::size_t flush_and_stop();

  // Completed rows dropped because a shard's dirty set was full.
  std::uint64_t rows_dropped() const { return rows_dropped_.load(std::memory_order_relaxed); }
  std::uint64_t rows_committed() const {
    return rows_committed_.load(std::memory_order_relaxed);
  }

  // Table II queries against the committed table.
  std::int64_t query_tps() const;
  minisql::ResultSet query_latencies() const;

  const std::shared_ptr<minisql::Database>& database() const { return db_; }

 private:
  void run_loop();
  std::size_t drain_round();

  std::shared_ptr<kvstore::KvStore> cache_;
  std::shared_ptr<minisql::Database> db_;
  MetricsOptions options_;

  std::mutex mu_;  // guards the wake flags only — producers never wait on a drain
  std::condition_variable cv_;
  bool wakeup_ = false;  // guarded by mu_
  bool stop_ = false;    // guarded by mu_
  std::mutex drain_mu_;  // serializes drain rounds (committer vs flush vs inline)
  std::thread thread_;
  std::atomic<bool> running_{false};

  std::atomic<std::uint64_t> rows_committed_{0};
  std::atomic<std::uint64_t> rows_dropped_{0};
};

// Run-level summary computed from the vector list.
struct RunResult {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;       // invalid/conflict receipts
  std::uint64_t rejected = 0;     // refused at submission (overload)
  std::uint64_t unmatched = 0;    // never appeared in a block before drain
  std::uint64_t retries = 0;        // RPC attempts beyond the first (this run)
  std::uint64_t send_failures = 0;  // txs written off after retry exhaustion
  double duration_s = 0.0;        // first send -> last commit
  double tps = 0.0;               // committed / duration
  util::Histogram latency;        // committed transactions only

  // Closed-loop rate accounting (DESIGN.md §14). target_rate is the
  // controller's setting at run end (0 = open loop); offered_rate is what
  // the pacing gate actually released per second of the send window;
  // achieved_rate mirrors tps (committed per second of the run envelope).
  // The offered/achieved gap is the saturation signal SaturationSearch
  // ramps against.
  double target_rate = 0.0;
  double offered_rate = 0.0;
  double achieved_rate = 0.0;

  // Run wall-clock envelope in the producing process's microsecond clock:
  // earliest send and latest commit observed. Zero when the run had no
  // records. merge_run_results() spans the merged duration from these, so a
  // coordinator must shift them into its own clock domain (ClockOffset)
  // before merging results from remote workers.
  std::int64_t first_start_us = 0;
  std::int64_t last_end_us = 0;

  // Per-stage latency breakdown (sign/queue/submit/include/detect) from the
  // lifecycle tracer; null unless the run was traced (trace_every_n > 0).
  json::Value stages;

  // Injected-fault counts by kind, snapshotted from the run's FaultInjector;
  // null when the run had no DriverOptions::fault_injector.
  json::Value faults;

  // Per-cluster-target deltas for this run (array of {target, submitted,
  // completed, shards}); a legacy single-endpoint driver gets a one-entry
  // array.
  json::Value targets;

  // ShardedTaskProcessor stats (per-shard registered/pending/probe_steps +
  // merged totals); null for non-Hammer tracking modes.
  json::Value processor;

  json::Value to_json() const;
  std::string summary() const;

  // Lossless wire round-trip for the control plane (control.report): unlike
  // the display-oriented to_json(), this carries the full latency histogram
  // (sparse non-zero buckets) and the clock envelope, so a coordinator can
  // rebuild the exact RunResult and merge it bin-wise.
  json::Value to_wire_json() const;
  static RunResult from_wire_json(const json::Value& v);
};

RunResult summarize(std::span<const TxRecord> records);

// Merges per-shard RunResults into the result the single process driving
// the whole workload would have produced: counts sum exactly, latency
// histograms merge bin-wise, the duration spans min(first_start_us) to
// max(last_end_us) and tps is recomputed from it. Fault counts (by kind)
// sum; `targets` concatenates with a "worker" tag per entry; stages and
// processor stay null (per-worker detail lives in the per-worker reports).
// Parts must share one clock domain — normalize remote timestamps first.
RunResult merge_run_results(std::span<const RunResult> parts);

}  // namespace hammer::core
