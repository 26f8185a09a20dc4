#include "core/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "telemetry/registry.hpp"
#include "util/errors.hpp"

namespace hammer::core {

// Table II. STATUS is '1' for committed transactions; timestamps are
// microseconds, so TIMESTAMPDIFF(SECOND, ...) <= 1 keeps sub-second (and
// exactly-one-second) commits, as in the paper's definition.
const char* const kTpsSql =
    "SELECT COUNT(*) AS TPS FROM Performance WHERE STATUS = '1' AND "
    "TIMESTAMPDIFF(SECOND, start_time, end_time) <= 1";

const char* const kLatencySql =
    "SELECT tx_id, start_time, end_time, "
    "TIMESTAMPDIFF(MILLISECOND, start_time, end_time) AS Latency FROM Performance";

namespace {

// hammer_store_* family: health of the cache -> SQL commit path.
struct StoreMetrics {
  telemetry::Counter& rows_buffered;
  telemetry::Counter& rows_committed;
  telemetry::Counter& rows_dropped;
  telemetry::Counter& flushes;
  telemetry::StageHistogram& flush_us;

  static StoreMetrics& get() {
    static StoreMetrics metrics;
    return metrics;
  }

 private:
  StoreMetrics()
      : rows_buffered(reg().counter("hammer_store_rows_buffered_total",
                                    "Completed records marked dirty for the committer")),
        rows_committed(reg().counter("hammer_store_rows_committed_total",
                                     "Rows landed in the table store by the committer")),
        rows_dropped(reg().counter("hammer_store_rows_dropped_total",
                                   "Rows lost to dirty-set overflow")),
        flushes(reg().counter("hammer_store_flushes_total",
                              "Committer drain rounds that found dirty rows")),
        flush_us(reg().histogram("hammer_store_flush_duration_us",
                                 "Wall time of one committer drain round")) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};

constexpr std::string_view kKeyPrefix = "perf:";

// Cache hash -> Performance row. Only completed records are marked dirty, so
// every drained hash carries all eight fields.
std::vector<minisql::Cell> performance_row(const std::string& key, const kvstore::Hash& fields) {
  return {key.substr(kKeyPrefix.size()),       fields.at("status"),
          std::stoll(fields.at("start_time")), std::stoll(fields.at("end_time")),
          fields.at("client_id"),              fields.at("server_id"),
          fields.at("chainname"),              fields.at("contractname")};
}

}  // namespace

MetricsPipeline::MetricsPipeline(std::shared_ptr<kvstore::KvStore> cache,
                                 std::shared_ptr<minisql::Database> db,
                                 MetricsOptions options)
    : cache_(std::move(cache)), db_(std::move(db)), options_(options) {
  HAMMER_CHECK(cache_ != nullptr);
  HAMMER_CHECK(db_ != nullptr);
  HAMMER_CHECK(options_.commit_batch_size > 0);
  if (!db_->has_table("Performance")) {
    db_->create_table("Performance", {{"tx_id", minisql::ColumnType::kText},
                                      {"status", minisql::ColumnType::kText},
                                      {"start_time", minisql::ColumnType::kInt},
                                      {"end_time", minisql::ColumnType::kInt},
                                      {"client_id", minisql::ColumnType::kText},
                                      {"server_id", minisql::ColumnType::kText},
                                      {"chainname", minisql::ColumnType::kText},
                                      {"contractname", minisql::ColumnType::kText}});
    // Table II's TPS query filters on STATUS = '1'; give the executor an
    // index bucket to push that equality into. tx_id serves point lookups.
    db_->create_index("Performance", "status");
    db_->create_index("Performance", "tx_id");
  }
}

MetricsPipeline::~MetricsPipeline() { flush_and_stop(); }

void MetricsPipeline::push_records(std::span<const TxRecord> records) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const TxRecord& record : records) {
    std::string key = std::string(kKeyPrefix) + record.tx_id;
    fields.clear();
    fields.emplace_back(
        "status", record.completed && record.status == chain::TxStatus::kCommitted ? "1" : "0");
    fields.emplace_back("start_time", std::to_string(record.start_us));
    if (record.completed) fields.emplace_back("end_time", std::to_string(record.end_us));
    fields.emplace_back("client_id", record.client_id);
    fields.emplace_back("server_id", record.server_id);
    fields.emplace_back("chainname", record.chainname);
    fields.emplace_back("contractname", record.contractname);

    // Completed records enter the dirty set for the drain; pending ones age
    // out on the TTL if they never complete.
    kvstore::KvStore::HsetManyResult result = cache_->hset_many(
        key, fields, /*mark_dirty=*/record.completed,
        record.completed ? util::Duration::zero() : options_.pending_ttl);
    if (result.dirty_marked) StoreMetrics::get().rows_buffered.add(1);
    if (result.dirty_dropped) {
      rows_dropped_.fetch_add(1, std::memory_order_relaxed);
      StoreMetrics::get().rows_dropped.add(1);
    }
    // Inline drains check after every record, so one large push cannot
    // overflow a dirty set that holds at least a batch.
    if (!options_.write_behind && cache_->dirty_count() >= options_.commit_batch_size) {
      drain_round();
    }
  }
  if (options_.write_behind && running_.load(std::memory_order_acquire) &&
      cache_->dirty_count() >= options_.commit_batch_size) {
    {
      std::scoped_lock lock(mu_);
      wakeup_ = true;
    }
    cv_.notify_one();
  }
}

void MetricsPipeline::start_committer() {
  if (!options_.write_behind || running_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::scoped_lock lock(mu_);
    stop_ = false;
    wakeup_ = false;
  }
  thread_ = std::thread([this] { run_loop(); });
}

void MetricsPipeline::run_loop() {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, options_.flush_interval, [this] { return wakeup_ || stop_; });
      wakeup_ = false;
      if (stop_) return;  // flush_and_stop() runs the final drain itself
    }
    drain_round();
  }
}

std::size_t MetricsPipeline::drain_round() {
  std::scoped_lock drain_lock(drain_mu_);
  const std::int64_t begin_us = util::SteadyClock::shared()->now_us();

  // Collect under the shard locks (drain_dirty holds one at a time), insert
  // after — the SQL writer lock is never taken while a cache shard is held.
  std::vector<std::vector<minisql::Cell>> rows;
  cache_->drain_dirty([&rows](const std::string& key, const kvstore::Hash& fields) {
    rows.push_back(performance_row(key, fields));
  });
  const std::size_t committed = rows.size();
  for (std::size_t begin = 0; begin < committed; begin += options_.commit_batch_size) {
    std::size_t end = std::min(committed, begin + options_.commit_batch_size);
    std::vector<std::vector<minisql::Cell>> batch(
        std::make_move_iterator(rows.begin() + static_cast<std::ptrdiff_t>(begin)),
        std::make_move_iterator(rows.begin() + static_cast<std::ptrdiff_t>(end)));
    db_->insert_batch("Performance", std::move(batch));
  }
  cache_->evict_expired();

  if (committed > 0) {
    StoreMetrics& metrics = StoreMetrics::get();
    rows_committed_.fetch_add(committed, std::memory_order_relaxed);
    metrics.rows_committed.add(committed);
    metrics.flushes.add(1);
    metrics.flush_us.record(util::SteadyClock::shared()->now_us() - begin_us);
  }
  return committed;
}

std::size_t MetricsPipeline::flush() { return drain_round(); }

std::size_t MetricsPipeline::flush_and_stop() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  return drain_round();
}

std::int64_t MetricsPipeline::query_tps() const {
  minisql::ResultSet rs = db_->query(kTpsSql);
  HAMMER_CHECK(rs.rows.size() == 1);
  return std::get<std::int64_t>(rs.rows[0][0]);
}

minisql::ResultSet MetricsPipeline::query_latencies() const { return db_->query(kLatencySql); }

json::Value RunResult::to_json() const {
  json::Value v =
      json::object({{"submitted", submitted},
                    {"committed", committed},
                    {"failed", failed},
                    {"rejected", rejected},
                    {"unmatched", unmatched},
                    {"retries", retries},
                    {"send_failures", send_failures},
                    {"duration_s", duration_s},
                    {"tps", tps},
                    {"target_rate", target_rate},
                    {"offered_rate", offered_rate},
                    {"achieved_rate", achieved_rate},
                    {"latency_mean_ms", latency.mean() / 1000.0},
                    {"latency_p50_ms", static_cast<double>(latency.percentile(50)) / 1000.0},
                    {"latency_p99_ms", static_cast<double>(latency.percentile(99)) / 1000.0}});
  if (!stages.is_null()) v.as_object()["stages"] = stages;
  if (!faults.is_null()) v.as_object()["faults"] = faults;
  if (!targets.is_null()) v.as_object()["targets"] = targets;
  if (!processor.is_null()) v.as_object()["processor"] = processor;
  return v;
}

std::string RunResult::summary() const {
  std::ostringstream os;
  os << "submitted=" << submitted << " committed=" << committed << " failed=" << failed
     << " rejected=" << rejected << " unmatched=" << unmatched << " tps=" << tps
     << " latency{" << latency.summary() << "}";
  if (retries > 0 || send_failures > 0) {
    os << " retries=" << retries << " send_failures=" << send_failures;
  }
  if (target_rate > 0.0) {
    os << " target_rate=" << target_rate << " offered_rate=" << offered_rate;
  }
  return os.str();
}

RunResult summarize(std::span<const TxRecord> records) {
  RunResult result;
  std::int64_t first_start = INT64_MAX;
  std::int64_t last_end = INT64_MIN;
  for (const TxRecord& record : records) {
    ++result.submitted;
    first_start = std::min(first_start, record.start_us);
    if (!record.completed) {
      ++result.unmatched;
      continue;
    }
    last_end = std::max(last_end, record.end_us);
    if (record.status == chain::TxStatus::kCommitted) {
      ++result.committed;
      result.latency.record(record.end_us - record.start_us);
    } else {
      ++result.failed;
    }
  }
  if (first_start != INT64_MAX) result.first_start_us = first_start;
  if (last_end != INT64_MIN) result.last_end_us = last_end;
  if (result.committed > 0 && last_end > first_start) {
    result.duration_s = static_cast<double>(last_end - first_start) / 1e6;
    result.tps = static_cast<double>(result.committed) / result.duration_s;
  }
  return result;
}

namespace {

// Sparse histogram encoding: only non-zero buckets cross the wire, as
// [index, count] pairs — a run's latencies cluster in a few dozen of the
// ~2000 buckets, so this stays small at any workload size.
json::Value histogram_to_json(const util::Histogram& h) {
  json::Array buckets;
  const std::vector<std::uint64_t>& counts = h.bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    json::Array pair;
    pair.push_back(json::Value(static_cast<std::int64_t>(i)));
    pair.push_back(json::Value(static_cast<std::int64_t>(counts[i])));
    buckets.push_back(json::Value(std::move(pair)));
  }
  return json::object({{"buckets", json::Value(std::move(buckets))},
                       {"sum", h.sum()},
                       {"min", h.min()},
                       {"max", h.max()}});
}

util::Histogram histogram_from_json(const json::Value& v, std::size_t num_buckets) {
  std::vector<std::uint64_t> counts(num_buckets, 0);
  for (const json::Value& pair : v.at("buckets").as_array()) {
    const json::Array& entry = pair.as_array();
    HAMMER_CHECK_MSG(entry.size() == 2, "histogram bucket pair must be [index, count]");
    auto index = static_cast<std::size_t>(entry[0].as_int());
    HAMMER_CHECK_MSG(index < counts.size(), "histogram bucket index out of layout");
    counts[index] = static_cast<std::uint64_t>(entry[1].as_int());
  }
  return util::Histogram::from_parts(counts, v.at("sum").as_int(), v.at("min").as_int(),
                                     v.at("max").as_int());
}

}  // namespace

json::Value RunResult::to_wire_json() const {
  json::Value v = json::object({{"submitted", submitted},
                                {"committed", committed},
                                {"failed", failed},
                                {"rejected", rejected},
                                {"unmatched", unmatched},
                                {"retries", retries},
                                {"send_failures", send_failures},
                                {"duration_s", duration_s},
                                {"tps", tps},
                                {"target_rate", target_rate},
                                {"offered_rate", offered_rate},
                                {"achieved_rate", achieved_rate},
                                {"first_start_us", first_start_us},
                                {"last_end_us", last_end_us},
                                {"latency", histogram_to_json(latency)}});
  if (!stages.is_null()) v.as_object()["stages"] = stages;
  if (!faults.is_null()) v.as_object()["faults"] = faults;
  if (!targets.is_null()) v.as_object()["targets"] = targets;
  if (!processor.is_null()) v.as_object()["processor"] = processor;
  return v;
}

RunResult RunResult::from_wire_json(const json::Value& v) {
  RunResult r;
  r.submitted = static_cast<std::uint64_t>(v.at("submitted").as_int());
  r.committed = static_cast<std::uint64_t>(v.at("committed").as_int());
  r.failed = static_cast<std::uint64_t>(v.at("failed").as_int());
  r.rejected = static_cast<std::uint64_t>(v.at("rejected").as_int());
  r.unmatched = static_cast<std::uint64_t>(v.at("unmatched").as_int());
  r.retries = static_cast<std::uint64_t>(v.at("retries").as_int());
  r.send_failures = static_cast<std::uint64_t>(v.at("send_failures").as_int());
  r.duration_s = v.at("duration_s").as_double();
  r.tps = v.at("tps").as_double();
  // Rate fields default to 0 so pre-rate-control reports still parse.
  r.target_rate = v.get_double("target_rate", 0.0);
  r.offered_rate = v.get_double("offered_rate", 0.0);
  r.achieved_rate = v.get_double("achieved_rate", 0.0);
  r.first_start_us = v.at("first_start_us").as_int();
  r.last_end_us = v.at("last_end_us").as_int();
  r.latency = histogram_from_json(v.at("latency"), r.latency.bucket_counts().size());
  if (v.contains("stages")) r.stages = v.at("stages");
  if (v.contains("faults")) r.faults = v.at("faults");
  if (v.contains("targets")) r.targets = v.at("targets");
  if (v.contains("processor")) r.processor = v.at("processor");
  return r;
}

RunResult merge_run_results(std::span<const RunResult> parts) {
  RunResult merged;
  if (parts.empty()) return merged;
  std::int64_t first_start = INT64_MAX;
  std::int64_t last_end = INT64_MIN;
  json::Object fault_sums;
  json::Array all_targets;
  bool any_faults = false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const RunResult& part = parts[i];
    merged.submitted += part.submitted;
    merged.committed += part.committed;
    merged.failed += part.failed;
    merged.rejected += part.rejected;
    merged.unmatched += part.unmatched;
    merged.retries += part.retries;
    merged.send_failures += part.send_failures;
    // Workers offer concurrently, so fleet-aggregate rates are sums (the
    // same split control.set_rate applies in reverse).
    merged.target_rate += part.target_rate;
    merged.offered_rate += part.offered_rate;
    merged.latency.merge(part.latency);
    // A part with no records keeps the zero envelope; it must not drag the
    // merged first_start to 0.
    if (part.first_start_us != 0 || part.last_end_us != 0) {
      first_start = std::min(first_start, part.first_start_us);
      last_end = std::max(last_end, part.last_end_us);
    }
    if (!part.faults.is_null()) {
      any_faults = true;
      for (const auto& [kind, n] : part.faults.as_object()) {
        auto it = fault_sums.find(kind);
        std::int64_t prior = it == fault_sums.end() ? 0 : it->second.as_int();
        fault_sums[kind] = prior + n.as_int();
      }
    }
    if (!part.targets.is_null()) {
      for (const json::Value& target : part.targets.as_array()) {
        json::Value tagged = target;
        tagged.as_object()["worker"] = static_cast<std::int64_t>(i);
        all_targets.push_back(std::move(tagged));
      }
    }
  }
  if (first_start != INT64_MAX) {
    merged.first_start_us = first_start;
    merged.last_end_us = last_end;
  }
  if (merged.committed > 0 && last_end > first_start) {
    merged.duration_s = static_cast<double>(last_end - first_start) / 1e6;
    merged.tps = static_cast<double>(merged.committed) / merged.duration_s;
  }
  merged.achieved_rate = merged.tps;
  if (any_faults) merged.faults = json::Value(std::move(fault_sums));
  if (!all_targets.empty()) merged.targets = json::Value(std::move(all_targets));
  return merged;
}

}  // namespace hammer::core
