#include "core/completion_tracker.hpp"

#include <mutex>

#include "core/baselines.hpp"
#include "core/sut_cluster.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::core {

namespace {

// Block detection: each target's sweep scans ONLY the shards that target
// owns, so N pollers cover the chain without fetching any block twice, and
// hands every new block to `match`.
class BlockScanner {
 public:
  BlockScanner(const SutCluster& cluster, std::shared_ptr<util::Clock> clock)
      : clock_(std::move(clock)) {
    for (std::size_t t = 0; t < cluster.size(); ++t) {
      scanned_.emplace_back(cluster.target(t).shards().size(), 0);
    }
  }

  // match(block_time_us, receipts, included_us) -> transactions completed.
  template <typename Match>
  std::size_t sweep(SutTarget& target, Match&& match) {
    adapters::ChainAdapter& adapter = *target.poll_adapter();
    const std::vector<std::uint32_t>& shards = target.shards();
    std::vector<std::uint64_t>& scanned = scanned_[target.index()];
    std::size_t matched = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const std::uint32_t s = shards[i];
      std::uint64_t h;
      try {
        h = adapter.height(s);
      } catch (const Error& e) {
        HLOG_WARN("driver") << "height poll failed: " << e.what();
        continue;
      }
      for (std::uint64_t b = scanned[i] + 1; b <= h; ++b) {
        // Algorithm 1 line 11: the observation time IS the commit time,
        // recorded before the fetch so block transfer does not inflate
        // measured latency.
        std::int64_t block_time_us = clock_->now_us();
        chain::Block block;
        try {
          block = adapter.block(s, b);
        } catch (const Error& e) {
          HLOG_WARN("driver") << "block fetch failed: " << e.what();
          break;
        }
        target.count_polled_blocks(1);
        // The block's seal stamp feeds the included-stage trace, separating
        // consensus latency from polling lag. It is on the SUT's clock: map
        // it onto the driver's via the hello-handshake offset, or a skewed
        // SUT clock shifts time between the include and detect stages.
        matched += match(block_time_us, std::span<const chain::TxReceipt>(block.receipts),
                         adapter.clock_offset().to_local(block.header.timestamp_us));
      }
      scanned[i] = h;
    }
    return matched;
  }

 private:
  std::shared_ptr<util::Clock> clock_;
  // Highest block scanned per target, per owned shard. Each row is touched
  // only by its own target's poller.
  std::vector<std::vector<std::uint64_t>> scanned_;
};

class AlgorithmOneTracker final : public CompletionTracker {
 public:
  AlgorithmOneTracker(const SutCluster& cluster, std::shared_ptr<util::Clock> clock,
                      const TaskProcessor::Options& options)
      : blocks_(cluster, std::move(clock)),
        processor_(options),
        chainname_(cluster.target(0).poll_adapter()->info().name) {}

  std::size_t track(const chain::Transaction& tx, std::string tx_id, std::uint64_t ordinal,
                    std::int64_t start_us, std::size_t) override {
    return processor_.register_tx(std::move(tx_id), start_us, tx.client_id, tx.server_id,
                                  chainname_, tx.contract, ordinal);
  }

  bool settle(std::size_t handle, bool accepted, std::int64_t now_us) override {
    if (accepted) return false;
    // A written-off entry may still have landed in doubt; on_block's
    // completed-guard absorbs the duplicate.
    processor_.mark_rejected(handle, now_us);
    return true;
  }

  std::size_t sweep(SutTarget& target) override {
    return blocks_.sweep(target, [this](std::int64_t block_time_us, auto receipts,
                                        std::int64_t included_us) {
      return processor_.on_block(block_time_us, receipts, included_us).matched;
    });
  }

  std::size_t pending_count() const override { return processor_.pending_count(); }
  void drain_completed(std::vector<TxRecord>& out) override {
    processor_.drain_newly_completed(out);
  }
  std::vector<TxRecord> records() const override { return processor_.snapshot(); }
  const ShardedTaskProcessor* task_processor() const override { return &processor_; }

 private:
  BlockScanner blocks_;
  ShardedTaskProcessor processor_;
  const std::string chainname_;
};

// The two baselines keep their pending transactions in BatchQueueProcessor
// lists, where every completion costs a linear scan: the per-transaction
// bookkeeping both comparators pay.
class QueueTracker : public CompletionTracker {
 public:
  explicit QueueTracker(std::size_t queues) : queues_(queues), drained_(queues, 0) {}

  std::size_t pending_count() const override {
    std::size_t n = 0;
    for (const BatchQueueProcessor& q : queues_) n += q.pending_count();
    return n;
  }

  void drain_completed(std::vector<TxRecord>& out) override {
    std::scoped_lock lock(drain_mu_);
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      std::vector<CompletedTx> fresh = queues_[i].completed(drained_[i]);
      drained_[i] += fresh.size();
      for (const CompletedTx& tx : fresh) out.push_back(record_of(tx, true));
    }
  }

  std::vector<TxRecord> records() const override {
    std::vector<TxRecord> out;
    for (const BatchQueueProcessor& q : queues_) {
      for (const CompletedTx& tx : q.completed()) out.push_back(record_of(tx, true));
      for (const CompletedTx& tx : q.pending_snapshot()) out.push_back(record_of(tx, false));
    }
    return out;
  }

 protected:
  std::vector<BatchQueueProcessor> queues_;

 private:
  static TxRecord record_of(const CompletedTx& tx, bool completed) {
    TxRecord r;
    r.tx_id = tx.tx_id;
    r.start_us = tx.start_us;
    if (completed) {
      r.end_us = tx.end_us;
      r.status = tx.status;
      r.completed = true;
    }
    return r;
  }

  std::mutex drain_mu_;
  std::vector<std::size_t> drained_;  // per queue: completions already drained
};

// Blockbench-style batch testing: one queue matched against every confirmed
// block. It has no removal path, so a refused or written-off id rots in the
// queue, as in a real Blockbench driver.
class BatchQueueTracker final : public QueueTracker {
 public:
  BatchQueueTracker(const SutCluster& cluster, std::shared_ptr<util::Clock> clock)
      : QueueTracker(1), blocks_(cluster, std::move(clock)) {}

  std::size_t track(const chain::Transaction&, std::string tx_id, std::uint64_t,
                    std::int64_t start_us, std::size_t) override {
    queues_[0].register_tx(std::move(tx_id), start_us);
    return 0;
  }
  bool settle(std::size_t, bool, std::int64_t) override { return false; }

  std::size_t sweep(SutTarget& target) override {
    return blocks_.sweep(target, [this](std::int64_t block_time_us, auto receipts,
                                        std::int64_t) {
      return queues_[0].on_block(block_time_us, receipts);
    });
  }

 private:
  BlockScanner blocks_;
};

// Interactive testing (paper §II-C2): every accepted transaction waits in
// its submit target's queue, and each sweep polls every one of them with
// its own receipt RPC — the "significant resource wastage" the paper
// attributes to Caliper-style frameworks.
class ReceiptListener final : public QueueTracker {
 public:
  ReceiptListener(const SutCluster& cluster, std::shared_ptr<util::Clock> clock)
      : QueueTracker(cluster.size()), clock_(std::move(clock)) {}

  std::size_t track(const chain::Transaction&, std::string tx_id, std::uint64_t,
                    std::int64_t start_us, std::size_t target) override {
    std::scoped_lock lock(mu_);
    sent_.push_back(Sent{std::move(tx_id), start_us, target});
    return sent_.size() - 1;
  }

  bool settle(std::size_t handle, bool accepted, std::int64_t now_us) override {
    Sent sent;
    {
      std::scoped_lock lock(mu_);
      sent = std::move(sent_[handle]);
    }
    BatchQueueProcessor& queue = queues_[sent.target];
    queue.register_tx(sent.tx_id, sent.start_us);
    if (accepted) return false;  // the listener takes it from here
    // Refused or written off: completes at once as invalid, so the listener
    // never waits on a receipt that cannot arrive.
    queue.on_block(now_us, std::vector<chain::TxReceipt>{
                               chain::TxReceipt{sent.tx_id, chain::TxStatus::kInvalid, ""}});
    return true;
  }

  std::size_t sweep(SutTarget& target) override {
    BatchQueueProcessor& queue = queues_[target.index()];
    std::vector<chain::TxReceipt> found;
    for (const CompletedTx& pending : queue.pending_snapshot()) {
      std::optional<adapters::ChainAdapter::ReceiptInfo> receipt;
      try {
        receipt = target.poll_adapter()->tx_receipt(pending.tx_id);
      } catch (const Error& e) {
        HLOG_WARN("driver") << "receipt poll failed: " << e.what();
        break;
      }
      if (receipt) found.push_back(chain::TxReceipt{pending.tx_id, receipt->status, ""});
    }
    return found.empty() ? 0 : queue.on_block(clock_->now_us(), found);
  }

 private:
  struct Sent {
    std::string tx_id;
    std::int64_t start_us = 0;
    std::size_t target = 0;
  };

  std::shared_ptr<util::Clock> clock_;
  std::mutex mu_;
  std::vector<Sent> sent_;  // indexed by handle; emptied at settle
};

}  // namespace

std::unique_ptr<CompletionTracker> make_completion_tracker(
    TrackingMode mode, const SutCluster& cluster, std::shared_ptr<util::Clock> clock,
    const TaskProcessor::Options& processor) {
  switch (mode) {
    case TrackingMode::kHammer:
      return std::make_unique<AlgorithmOneTracker>(cluster, std::move(clock), processor);
    case TrackingMode::kBatchQueue:
      return std::make_unique<BatchQueueTracker>(cluster, std::move(clock));
    case TrackingMode::kInteractive:
      return std::make_unique<ReceiptListener>(cluster, std::move(clock));
  }
  HAMMER_CHECK(false);
  return nullptr;
}

}  // namespace hammer::core
