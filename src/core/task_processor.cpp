#include "core/task_processor.hpp"

#include <algorithm>
#include <iterator>

#include "telemetry/registry.hpp"
#include "util/errors.hpp"

namespace hammer::core {

namespace {
// The Bloom filter is sized for 1% false positives at expected_txs.
constexpr double kBloomFpRate = 0.01;

// Task-processing (Algorithm 1) health series: how hard the Bloom filter
// and hash index are working while the run is live.
struct TaskProcMetrics {
  telemetry::Counter& registered;
  telemetry::Counter& matched;
  telemetry::Counter& bloom_rejected;
  telemetry::Counter& bloom_false_positives;
  telemetry::Counter& duplicates;
  telemetry::Counter& probe_steps;

  static TaskProcMetrics& get() {
    static TaskProcMetrics metrics;
    return metrics;
  }

 private:
  TaskProcMetrics()
      : registered(reg().counter("hammer_taskproc_registered_total",
                                 "Transactions entered into the vector list")),
        matched(reg().counter("hammer_taskproc_matched_total",
                              "Receipts matched to pending records")),
        bloom_rejected(reg().counter("hammer_taskproc_bloom_rejected_total",
                                     "Receipt ids sifted out by the Bloom filter")),
        bloom_false_positives(reg().counter(
            "hammer_taskproc_bloom_false_positives_total",
            "Ids that passed the filter but were absent from the index")),
        duplicates(reg().counter("hammer_taskproc_duplicates_total",
                                 "Receipts for already-completed records")),
        probe_steps(reg().counter("hammer_taskproc_index_probe_steps_total",
                                  "Hash-index probe steps (lookup work)")) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};
}  // namespace

TaskProcessor::TaskProcessor(Options options)
    : options_(options),
      index_(options.initial_index_capacity),
      bloom_(options.expected_txs, kBloomFpRate) {
  records_.reserve(options.expected_txs);
}

std::size_t TaskProcessor::register_tx(std::string tx_id, std::int64_t start_us,
                                       const std::string& client_id,
                                       const std::string& server_id,
                                       const std::string& chainname,
                                       const std::string& contractname,
                                       std::uint64_t ordinal) {
  TaskProcMetrics::get().registered.add(1);
  std::scoped_lock lock(mu_);
  std::size_t position = records_.size();
  TxRecord record;
  record.tx_id = std::move(tx_id);
  record.start_us = start_us;
  record.ordinal = ordinal;
  record.client_id = client_id;
  record.server_id = server_id;
  record.chainname = chainname;
  record.contractname = contractname;
  index_.insert(record.tx_id, position);
  bloom_.insert(record.tx_id);
  records_.push_back(std::move(record));
  return position;
}

void TaskProcessor::apply_receipt_locked(const chain::TxReceipt& receipt,
                                         std::int64_t block_time_us, std::int64_t include_us,
                                         BlockOutcome& outcome) {
  // Line 15: rapid exclusion of transactions not in the index.
  if (!bloom_.may_contain(receipt.tx_id)) {
    ++outcome.bloom_rejected;
    return;
  }
  // Line 18: locate via the hash index (false positives land here).
  std::optional<std::uint64_t> position = index_.find(receipt.tx_id);
  if (!position) {
    ++outcome.unknown;
    return;
  }
  TxRecord& record = records_[*position];
  if (record.completed) {
    ++outcome.duplicates;
    return;
  }
  // Line 19: update status and end time.
  record.end_us = block_time_us;
  record.status = receipt.status;
  record.completed = true;
  ++completed_;
  ++outcome.matched;
  if (options_.track_completions) newly_completed_.push_back(*position);
  if (options_.tracer != nullptr && options_.tracer->sampled(record.ordinal)) {
    options_.tracer->record(record.ordinal, telemetry::Stage::kIncluded,
                            include_us >= 0 ? include_us : block_time_us);
    options_.tracer->record(record.ordinal, telemetry::Stage::kDetected, block_time_us);
  }
}

void TaskProcessor::flush_outcome_metrics(const BlockOutcome& outcome,
                                          std::uint64_t probe_delta) {
  TaskProcMetrics& metrics = TaskProcMetrics::get();
  metrics.matched.add(outcome.matched);
  metrics.bloom_rejected.add(outcome.bloom_rejected);
  metrics.bloom_false_positives.add(outcome.unknown);
  metrics.duplicates.add(outcome.duplicates);
  metrics.probe_steps.add(probe_delta);
}

TaskProcessor::BlockOutcome TaskProcessor::on_block(
    std::int64_t block_time_us, std::span<const chain::TxReceipt> receipts,
    std::int64_t include_us) {
  BlockOutcome outcome;
  std::uint64_t probe_delta = 0;
  {
    std::scoped_lock lock(mu_);
    const std::uint64_t probes_before = index_.probe_steps();
    for (const chain::TxReceipt& receipt : receipts) {
      apply_receipt_locked(receipt, block_time_us, include_us, outcome);
    }
    probe_delta = index_.probe_steps() - probes_before;
  }
  flush_outcome_metrics(outcome, probe_delta);
  return outcome;
}

TaskProcessor::BlockOutcome TaskProcessor::on_block_some(
    std::int64_t block_time_us, std::span<const chain::TxReceipt> receipts,
    std::span<const std::uint32_t> indices, std::int64_t include_us) {
  BlockOutcome outcome;
  std::uint64_t probe_delta = 0;
  {
    std::scoped_lock lock(mu_);
    const std::uint64_t probes_before = index_.probe_steps();
    for (std::uint32_t i : indices) {
      apply_receipt_locked(receipts[i], block_time_us, include_us, outcome);
    }
    probe_delta = index_.probe_steps() - probes_before;
  }
  flush_outcome_metrics(outcome, probe_delta);
  return outcome;
}

void TaskProcessor::mark_rejected(std::size_t position, std::int64_t end_us) {
  std::scoped_lock lock(mu_);
  HAMMER_CHECK(position < records_.size());
  TxRecord& record = records_[position];
  if (record.completed) return;
  record.end_us = end_us;
  record.status = chain::TxStatus::kInvalid;
  record.completed = true;
  ++completed_;
  if (options_.track_completions) newly_completed_.push_back(position);
}

std::size_t TaskProcessor::total_registered() const {
  std::scoped_lock lock(mu_);
  return records_.size();
}

std::size_t TaskProcessor::pending_count() const {
  std::scoped_lock lock(mu_);
  return records_.size() - completed_;
}

std::vector<TxRecord> TaskProcessor::snapshot() const {
  std::scoped_lock lock(mu_);
  return records_;
}

std::size_t TaskProcessor::drain_newly_completed(std::vector<TxRecord>& out) {
  std::scoped_lock lock(mu_);
  std::size_t count = newly_completed_.size();
  out.reserve(out.size() + count);
  for (std::size_t position : newly_completed_) out.push_back(records_[position]);
  newly_completed_.clear();
  return count;
}

std::uint64_t TaskProcessor::index_probe_steps() const {
  std::scoped_lock lock(mu_);
  return index_.probe_steps();
}

std::uint64_t TaskProcessor::index_expansions() const {
  std::scoped_lock lock(mu_);
  return index_.expansions();
}

double TaskProcessor::bloom_fill() const {
  std::scoped_lock lock(mu_);
  return bloom_.estimated_fp_rate();
}

ShardedTaskProcessor::ShardedTaskProcessor(TaskProcessor::Options options) {
  std::size_t count = std::max<std::size_t>(1, options.shards);
  TaskProcessor::Options per_shard = options;
  // Each shard sees ~1/K of the ids; size its Bloom filter and vector list
  // accordingly so K shards cost what one flat processor did.
  per_shard.expected_txs = std::max<std::size_t>(1, (options.expected_txs + count - 1) / count);
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    shards_.push_back(std::make_unique<TaskProcessor>(per_shard));
  }
}

std::size_t ShardedTaskProcessor::register_tx(std::string tx_id, std::int64_t start_us,
                                              const std::string& client_id,
                                              const std::string& server_id,
                                              const std::string& chainname,
                                              const std::string& contractname,
                                              std::uint64_t ordinal) {
  std::size_t shard = shard_of(tx_id);
  std::size_t position = shards_[shard]->register_tx(std::move(tx_id), start_us, client_id,
                                                     server_id, chainname, contractname,
                                                     ordinal);
  return position * shards_.size() + shard;
}

TaskProcessor::BlockOutcome ShardedTaskProcessor::on_block(
    std::int64_t block_time_us, std::span<const chain::TxReceipt> receipts,
    std::int64_t include_us) {
  if (shards_.size() == 1) return shards_[0]->on_block(block_time_us, receipts, include_us);
  // Partition once, then apply each slice under its own shard's lock.
  std::vector<std::vector<std::uint32_t>> slices(shards_.size());
  for (std::uint32_t i = 0; i < receipts.size(); ++i) {
    slices[shard_of(receipts[i].tx_id)].push_back(i);
  }
  TaskProcessor::BlockOutcome merged;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (slices[s].empty()) continue;
    TaskProcessor::BlockOutcome outcome =
        shards_[s]->on_block_some(block_time_us, receipts, slices[s], include_us);
    merged.matched += outcome.matched;
    merged.bloom_rejected += outcome.bloom_rejected;
    merged.unknown += outcome.unknown;
    merged.duplicates += outcome.duplicates;
  }
  return merged;
}

void ShardedTaskProcessor::mark_rejected(std::size_t handle, std::int64_t end_us) {
  shards_[handle % shards_.size()]->mark_rejected(handle / shards_.size(), end_us);
}

std::size_t ShardedTaskProcessor::total_registered() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->total_registered();
  return total;
}

std::size_t ShardedTaskProcessor::pending_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_count();
  return total;
}

std::vector<TxRecord> ShardedTaskProcessor::snapshot() const {
  std::vector<TxRecord> all;
  all.reserve(total_registered());
  for (const auto& shard : shards_) {
    std::vector<TxRecord> records = shard->snapshot();
    all.insert(all.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  return all;
}

std::size_t ShardedTaskProcessor::drain_newly_completed(std::vector<TxRecord>& out) {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->drain_newly_completed(out);
  return total;
}

std::uint64_t ShardedTaskProcessor::index_probe_steps() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index_probe_steps();
  return total;
}

std::uint64_t ShardedTaskProcessor::index_expansions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index_expansions();
  return total;
}

double ShardedTaskProcessor::bloom_fill() const {
  double sum = 0.0;
  for (const auto& shard : shards_) sum += shard->bloom_fill();
  return sum / static_cast<double>(shards_.size());
}

json::Value ShardedTaskProcessor::stats_json() const {
  json::Array per_shard;
  per_shard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    per_shard.push_back(json::object(
        {{"shard", static_cast<std::int64_t>(s)},
         {"registered", shards_[s]->total_registered()},
         {"pending", shards_[s]->pending_count()},
         {"probe_steps", shards_[s]->index_probe_steps()},
         {"expansions", shards_[s]->index_expansions()},
         {"bloom_fill", shards_[s]->bloom_fill()}}));
  }
  return json::object({{"shards", static_cast<std::int64_t>(shards_.size())},
                       {"registered", total_registered()},
                       {"pending", pending_count()},
                       {"probe_steps", index_probe_steps()},
                       {"expansions", index_expansions()},
                       {"per_shard", json::Value(std::move(per_shard))}});
}

}  // namespace hammer::core
