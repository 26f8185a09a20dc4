// CompletionTracker: how a run learns that a submitted transaction is done.
// The driver tracks each transaction before its send, settles it with the
// send's outcome, and lets one poller per cluster target sweep for
// completions. One implementation per strategy the paper compares:
//
//   kHammer      — Algorithm 1 (ShardedTaskProcessor) over confirmed blocks.
//   kBatchQueue  — Blockbench-style O(n·m) queue matching over confirmed
//                  blocks (Fig. 7 / Fig. 9 baseline). The queue has no
//                  removal path: refused and written-off transactions stay
//                  pending and surface as unmatched.
//   kInteractive — Caliper-style interactive testing: one receipt RPC per
//                  pending transaction per sweep, at the target it was sent
//                  through (Fig. 7 baseline; "requires monitoring and
//                  parsing responses for each transaction").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "core/task_processor.hpp"
#include "util/clock.hpp"

namespace hammer::core {

class SutCluster;
class SutTarget;

enum class TrackingMode { kHammer, kBatchQueue, kInteractive };

class CompletionTracker {
 public:
  virtual ~CompletionTracker() = default;

  // Submit stage, called by a worker BEFORE the send so no sweep can see a
  // block before the tracker knows the id. `target` is the index of the
  // cluster target the send goes through. Returns the handle settle() takes.
  virtual std::size_t track(const chain::Transaction& tx, std::string tx_id,
                            std::uint64_t ordinal, std::int64_t start_us,
                            std::size_t target) = 0;

  // The send's outcome: accepted by the SUT, or not (refused, or written
  // off after the retry policy gave up). Returns true when the outcome
  // closed the transaction (it left the pending set).
  virtual bool settle(std::size_t handle, bool accepted, std::int64_t now_us) = 0;

  // Detect stage: one sweep over what `target` has to show, from that
  // target's own poller thread. Returns the transactions it completed.
  virtual std::size_t sweep(SutTarget& target) = 0;

  virtual std::size_t pending_count() const = 0;

  // Appends a copy of every record completed since the last call (the
  // write-behind metrics feed).
  virtual void drain_completed(std::vector<TxRecord>& out) = 0;

  // Every tracked transaction, completed or not, for the run summary.
  virtual std::vector<TxRecord> records() const = 0;

  // The Algorithm 1 processor behind this tracker; null for the baselines.
  virtual const ShardedTaskProcessor* task_processor() const { return nullptr; }
};

// `processor` configures the kHammer tracker; the baselines ignore it.
std::unique_ptr<CompletionTracker> make_completion_tracker(
    TrackingMode mode, const SutCluster& cluster, std::shared_ptr<util::Clock> clock,
    const TaskProcessor::Options& processor);

}  // namespace hammer::core
