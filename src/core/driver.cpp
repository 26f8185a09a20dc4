#include "core/driver.hpp"

#include <algorithm>
#include <fstream>

#include "telemetry/registry.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::core {

namespace {
// Signed transactions buffered between the sign and submit stages, split
// over the cluster's targets.
constexpr std::size_t kSignQueueCapacity = 4096;
// Lifecycle tracing ring size (sampled transactions kept per run).
constexpr std::size_t kTraceCapacity = 1 << 16;

// Driver-side series: the live view of the load generator itself. The
// in-flight gauge is the difference between accepted submissions and
// completions observed in blocks, so a mid-run scrape shows backpressure.
struct DriverMetrics {
  telemetry::Counter& submitted;
  telemetry::Counter& completed;
  telemetry::Counter& rejected;
  telemetry::Counter& send_failures;
  telemetry::Gauge& inflight;
  telemetry::Gauge& offered_rate;
  telemetry::Gauge& achieved_rate;
  telemetry::StageHistogram& sign_us;
  telemetry::StageHistogram& submit_us;
  telemetry::StageHistogram& batch_txs;

  static DriverMetrics& get() {
    static DriverMetrics metrics;
    return metrics;
  }

 private:
  DriverMetrics()
      : submitted(reg().counter("hammer_driver_submitted_total",
                                "Transactions handed to the chain adapter")),
        completed(reg().counter("hammer_driver_completed_total",
                                "Transactions observed complete in blocks or receipts")),
        rejected(reg().counter("hammer_driver_rejected_total",
                               "Submissions refused by the SUT (overload)")),
        send_failures(reg().counter("hammer_driver_send_failures_total",
                                    "Transactions failed after the retry policy was exhausted")),
        inflight(reg().gauge("hammer_driver_inflight",
                             "Accepted transactions not yet observed in a block")),
        offered_rate(reg().gauge("hammer_driver_offered_rate",
                                 "Send rate the load controller released, tx/s")),
        achieved_rate(reg().gauge("hammer_driver_achieved_rate",
                                  "Commit rate observed over the run window, tx/s")),
        sign_us(reg().histogram("hammer_driver_sign_us",
                                "Per-transaction signing latency (pipelined feeder)")),
        submit_us(reg().histogram("hammer_driver_submit_us",
                                  "Submission round-trip latency per worker send")),
        batch_txs(reg().histogram("hammer_driver_batch_txs",
                                  "Transactions coalesced per worker send", "",
                                  {1, 2, 4, 8, 16, 32, 64, 128, 256})) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};

// Gauges only expose add/sub; rate gauges are set by delta so the sharded
// scrape sums land on the new value.
void set_gauge(telemetry::Gauge& gauge, std::int64_t value) {
  gauge.add(value - gauge.value());
}

// Split `total` workers over `targets`, at least one each.
std::vector<std::size_t> split_workers(std::size_t total, std::size_t targets) {
  std::vector<std::size_t> out(targets, total / targets);
  for (std::size_t i = 0; i < total % targets; ++i) ++out[i];
  for (std::size_t& n : out) n = std::max<std::size_t>(1, n);
  return out;
}

const char* const kKnownDriverOptionKeys[] = {
    "worker_threads", "submit_batch_size", "routing",       "drain_timeout_ms",
    "poll_interval_ms", "task_shards",     "pipelined_signing", "trace_every_n",
    "channels_per_target", "target_rate",  "rate_burst"};

}  // namespace

bool is_known_driver_option_key(const std::string& key) {
  return std::any_of(std::begin(kKnownDriverOptionKeys), std::end(kKnownDriverOptionKeys),
                     [&](const char* k) { return key == k; });
}

DriverOptions driver_options_from_json(const json::Value& v,
                                       std::size_t* channels_per_target) {
  DriverOptions options;
  std::size_t channels = 2;
  if (!v.is_null()) {
    for (const auto& [key, value] : v.as_object()) {
      (void)value;
      if (!is_known_driver_option_key(key)) {
        throw ParseError("unknown driver option key '" + key + "'");
      }
    }
    // Integer knobs are range-checked as signed values, before any cast to
    // an unsigned field turns -1 into 2^64-1.
    auto at_least = [&v](const char* key, std::int64_t fallback, std::int64_t min) {
      std::int64_t n = v.get_int(key, fallback);
      if (n < min) {
        throw ParseError("driver." + std::string(key) + " must be >= " + std::to_string(min) +
                         " (got " + std::to_string(n) + ")");
      }
      return n;
    };
    options.worker_threads = static_cast<std::size_t>(at_least("worker_threads", 2, 1));
    options.submit_batch_size = static_cast<std::size_t>(at_least("submit_batch_size", 1, 1));
    options.routing = routing_kind_from_string(v.get_string("routing", "round_robin"));
    options.drain_timeout = std::chrono::milliseconds(at_least("drain_timeout_ms", 20000, 0));
    options.poll_interval = std::chrono::milliseconds(at_least("poll_interval_ms", 25, 1));
    options.task_processor.shards = static_cast<std::size_t>(at_least("task_shards", 1, 1));
    options.pipelined_signing = v.get_bool("pipelined_signing", true);
    options.trace_every_n = static_cast<std::uint64_t>(at_least("trace_every_n", 0, 0));
    channels = static_cast<std::size_t>(at_least("channels_per_target", 2, 1));
    options.target_rate = v.get_double("target_rate", 0.0);
    options.rate_burst = v.get_double("rate_burst", options.rate_burst);
    if (options.target_rate < 0.0) throw ParseError("driver.target_rate must be >= 0");
  }
  if (channels_per_target != nullptr) *channels_per_target = channels;
  return options;
}

HammerDriver::HammerDriver(std::shared_ptr<SutCluster> cluster,
                           std::shared_ptr<util::Clock> clock, DriverOptions options)
    : cluster_(std::move(cluster)), clock_(std::move(clock)), options_(std::move(options)) {
  HAMMER_CHECK(cluster_ != nullptr);
  HAMMER_CHECK(clock_ != nullptr);
  HAMMER_CHECK(options_.worker_threads >= 1);
  load_ = options_.load;
  if (!load_) {
    LoadOptions load_options;
    load_options.rate = options_.target_rate;
    load_options.burst = options_.rate_burst;
    load_ = std::make_shared<LoadController>(load_options, clock_);
  }
  if (options_.client_vcpus > 0) {
    HAMMER_CHECK(options_.client_vcpus <= 64);
    client_cores_ = std::make_unique<std::counting_semaphore<64>>(options_.client_vcpus);
  }
}

void HammerDriver::charge_client_cpu() {
  if (!client_cores_ || options_.per_tx_client_us <= 0) return;
  // Serialize per-tx client work over the modeled cores.
  client_cores_->acquire();
  std::int64_t work = options_.per_tx_client_us;
  // Oversubscription overhead: every thread beyond the core count adds
  // context-switch cost to each transaction's client-side work.
  if (options_.worker_threads > options_.client_vcpus) {
    work += options_.switch_penalty_us *
            static_cast<std::int64_t>(options_.worker_threads - options_.client_vcpus);
  }
  clock_->sleep_for(std::chrono::microseconds(work));
  client_cores_->release();
}

void HammerDriver::worker_loop(SutTarget& target, std::size_t slot, SendQueue& queue,
                               workload::RateController* rate) {
  adapters::ChainAdapter& adapter = target.worker_adapter(slot);
  const std::size_t batch_limit = std::max<std::size_t>(1, options_.submit_batch_size);
  DriverMetrics& metrics = DriverMetrics::get();
  std::vector<chain::Transaction> batch;
  std::vector<std::uint64_t> ordinals;
  std::vector<std::string> ids;
  std::vector<std::size_t> handles;
  batch.reserve(batch_limit);
  ordinals.reserve(batch_limit);
  ids.reserve(batch_limit);
  handles.reserve(batch_limit);

  while (auto first = queue.pop()) {
    batch.clear();
    ids.clear();
    ordinals.clear();
    batch.push_back(std::move(first->tx));
    ids.push_back(std::move(first->id));
    ordinals.push_back(first->ordinal);
    // Coalesce whatever is already signed and waiting, up to the configured
    // batch size — one JSON-RPC batch frame instead of N round trips.
    while (batch.size() < batch_limit) {
      auto more = queue.try_pop();
      if (!more) break;
      batch.push_back(std::move(more->tx));
      ids.push_back(std::move(more->id));
      ordinals.push_back(more->ordinal);
    }
    if (rate) {
      // One send deadline per transaction; the batch leaves when its last
      // member is due, so coalescing preserves the plan's aggregate rate.
      // An exhausted rate plan still sends the remaining queue immediately
      // (plan totals and workload size are matched by callers).
      for (std::size_t i = 0; i < batch.size(); ++i) {
        auto deadline = rate->next_send_time();
        if (deadline) clock_->sleep_until(*deadline);
      }
    }
    // Closed-loop pacing gate: one token per transaction before the send
    // leaves. Open-loop controllers return immediately, but still stamp the
    // release window so offered_rate is measured on every run.
    load_->acquire(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) charge_client_cpu();

    // One trace per batch frame: if any member is sampled, the whole frame
    // carries a fresh trace id and every sampled member stitches under it.
    telemetry::TraceContext trace_ctx;
    if (merger_) {
      for (std::uint64_t ordinal : ordinals) {
        if (tracer_->sampled(ordinal)) {
          trace_ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
          trace_ctx.span_id = trace_ctx.trace_id;  // synthetic client-root span
          break;
        }
      }
    }
    std::int64_t start_us = clock_->now_us();
    metrics.submitted.add(batch.size());
    metrics.inflight.add(batch.size());
    metrics.batch_txs.record(static_cast<std::int64_t>(batch.size()));
    handles.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Tracked BEFORE the send, so no sweep can see the block first.
      handles.push_back(
          tracker_->track(batch[i], std::move(ids[i]), ordinals[i], start_us, target.index()));
    }

    std::vector<adapters::ChainAdapter::SubmitResult> results;
    bool written_off = false;
    try {
      results = adapter.submit_batch(batch, trace_ctx);
    } catch (const TransportError& e) {
      // The adapter's retry policy is exhausted (or retries are off): the
      // whole send is written off as failed and the run keeps going —
      // graceful degradation, never an aborted run.
      written_off = true;
      send_failures_.fetch_add(batch.size());
      metrics.send_failures.add(batch.size());
      HLOG_EVERY_N("driver", 100) << "send failed after retries (" << batch.size()
                                  << " txs written off): " << e.what();
    }
    std::int64_t send_done_us = clock_->now_us();
    std::uint64_t rejected = 0, closed = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool accepted = !written_off && results[i].ok();
      if (!accepted && !written_off) ++rejected;
      if (tracker_->settle(handles[i], accepted, send_done_us)) ++closed;
    }
    metrics.inflight.sub(closed);
    if (rejected > 0) {
      rejections_.fetch_add(rejected);
      metrics.rejected.add(rejected);
      HLOG_EVERY_N("driver", 100) << "SUT rejected a submission (" << rejections_.load()
                                  << " total this run)";
    }
    // Submit stage done for this batch: the target's routed backlog shrinks
    // whether the SUT accepted, rejected, or the send was written off.
    target.count_submitted(batch.size());
    target.sub_in_flight(batch.size());
    metrics.submit_us.record(send_done_us - start_us);
    if (tracer_) {
      for (std::uint64_t ordinal : ordinals) {
        if (!tracer_->sampled(ordinal)) continue;
        tracer_->record(ordinal, telemetry::Stage::kSubmitted, send_done_us);
        if (merger_ && trace_ctx.sampled()) {
          merger_->note_submit(telemetry::SubmitTrace{ordinal, trace_ctx.trace_id, start_us,
                                                      send_done_us, adapter.target_index()});
        }
      }
    }
  }
}

void HammerDriver::poll_loop(SutTarget& target, util::Duration interval) {
  // Detect stage: this target's poller sweeps the tracker, then (with a
  // metrics pipeline) hands records completed since the last sweep to the
  // metrics cache, so they land in SQL while the run is still going (each
  // poller's drain is disjoint).
  std::vector<TxRecord> fresh;
  while (!stop_polling_.load()) {
    std::size_t matched = tracker_->sweep(target);
    if (matched > 0) {
      target.count_completed(matched);
      DriverMetrics::get().completed.add(matched);
      DriverMetrics::get().inflight.sub(matched);
    }
    if (options_.metrics) {
      fresh.clear();
      tracker_->drain_completed(fresh);
      if (!fresh.empty()) options_.metrics->push_records(fresh);
    }
    // One poller (target 0's) refreshes the live offered-rate gauge so a
    // mid-run scrape shows the pacing the controller is actually granting.
    if (target.index() == 0) {
      set_gauge(DriverMetrics::get().offered_rate,
                static_cast<std::int64_t>(load_->offered_rate()));
    }
    clock_->sleep_for(interval);
  }
}

RunResult HammerDriver::run(const workload::WorkloadFile& workload,
                            const workload::ControlSequence* rate) {
  const std::size_t total = workload.transactions.size();
  const std::size_t n_targets = cluster_->size();
  if (options_.trace_every_n > 0) {
    tracer_ = std::make_unique<telemetry::TxTracer>(kTraceCapacity, options_.trace_every_n);
    merger_ = std::make_unique<telemetry::TraceMerger>();
    next_trace_id_.store(1);
  } else {
    tracer_.reset();
    merger_.reset();
  }
  TaskProcessor::Options tp = options_.task_processor;
  tp.expected_txs = std::max(tp.expected_txs, total);
  tp.tracer = tracer_.get();
  // A metrics pipeline streams completed records out mid-run; the
  // processor keeps a newly-completed set for the pollers to drain.
  tp.track_completions = options_.metrics != nullptr;
  // The tracking mode is read here only: it picks the tracker and its
  // pollers' sweep cadence.
  tracker_ = make_completion_tracker(options_.mode, *cluster_, clock_, tp);
  const util::Duration sweep_interval = options_.mode == TrackingMode::kInteractive
                                            ? options_.interactive_poll
                                            : options_.poll_interval;
  if (options_.metrics) options_.metrics->start_committer();
  rejections_.store(0);
  send_failures_.store(0);
  stop_polling_.store(false);
  // Fresh bucket and offered-rate window; the target rate (possibly
  // retargeted mid-flight last run) carries over.
  load_->reset();

  // Adapters persist across runs, so RunResult::retries is a delta of the
  // lifetime counters (deduped — the poll adapter may double as a worker).
  std::vector<const adapters::ChainAdapter*> run_adapters;
  auto add_adapter = [&run_adapters](const adapters::ChainAdapter* a) {
    if (std::find(run_adapters.begin(), run_adapters.end(), a) == run_adapters.end()) {
      run_adapters.push_back(a);
    }
  };
  for (std::size_t t = 0; t < n_targets; ++t) {
    for (const auto& a : cluster_->target(t).worker_adapters()) add_adapter(a.get());
    add_adapter(cluster_->target(t).poll_adapter().get());
  }
  std::uint64_t retries_before = 0;
  for (const adapters::ChainAdapter* a : run_adapters) retries_before += a->retries();
  std::vector<std::uint64_t> submitted_before(n_targets), completed_before(n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    submitted_before[t] = cluster_->target(t).submitted();
    completed_before[t] = cluster_->target(t).completed();
  }

  // --- sign + route stages: one queue per target; the feeder signs, asks
  // the routing policy for a target, and pushes onto that target's queue ---
  std::vector<std::unique_ptr<SendQueue>> queues;
  queues.reserve(n_targets);
  const std::size_t per_queue_capacity =
      std::max<std::size_t>(64, kSignQueueCapacity / n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    queues.push_back(std::make_unique<SendQueue>(per_queue_capacity));
  }
  auto close_all = [&queues] {
    for (auto& q : queues) q->close();
  };
  std::unique_ptr<RoutingPolicy> policy = make_routing_policy(options_.routing);

  // Serial signing (pipelined_signing = false) signs the whole workload up
  // front, so the feeder only routes and each tx's sign stage collapses to
  // nothing; the queue/submit/include/detect stages stay real.
  std::vector<chain::Transaction> presigned;
  std::vector<std::string> presigned_ids;
  if (!options_.pipelined_signing) {
    presigned = workload.transactions;
    for (chain::Transaction& tx : presigned) tx.server_id = options_.server_id;
    presigned_ids = sign_serial(presigned, *keys_);
  }
  std::thread feeder([this, &queues, &close_all, &policy, &workload, &presigned,
                      &presigned_ids] {
    DriverMetrics& metrics = DriverMetrics::get();
    for (std::uint64_t ordinal = 0; ordinal < workload.transactions.size(); ++ordinal) {
      const bool pipelined = options_.pipelined_signing;
      chain::Transaction tx = pipelined ? chain::Transaction(workload.transactions[ordinal])
                                        : std::move(presigned[ordinal]);
      std::string id = pipelined ? std::string() : std::move(presigned_ids[ordinal]);
      std::int64_t sign_begin_us = clock_->now_us();
      if (pipelined) {
        // The sending server stamps its id before signing (Alg. 1 line 3's
        // s_id is part of the signed payload).
        tx.server_id = options_.server_id;
        id = tx.sign_with(keys_->get(tx.sender));
      }
      std::int64_t signed_us = clock_->now_us();
      if (pipelined) metrics.sign_us.record(signed_us - sign_begin_us);
      const bool traced = tracer_ && tracer_->sampled(ordinal);
      if (traced) {
        tracer_->record(ordinal, telemetry::Stage::kStart, sign_begin_us);
        tracer_->record(ordinal, telemetry::Stage::kSigned, signed_us);
      }
      // Route stage. In-flight is charged at push, not at send:
      // least_inflight must see the queued backlog, or every decision
      // happens against an empty-looking cluster.
      const std::size_t t = policy->route(tx, *cluster_);
      cluster_->target(t).add_in_flight(1);
      if (!queues[t]->push(SendQueueItem{std::move(tx), std::move(id), ordinal})) {
        cluster_->target(t).sub_in_flight(1);
        return;
      }
      if (traced) tracer_->record(ordinal, telemetry::Stage::kEnqueued, clock_->now_us());
    }
    close_all();
  });

  // --- submit + detect stages ---
  std::unique_ptr<workload::RateController> controller;
  if (rate) controller = std::make_unique<workload::RateController>(*rate, clock_);

  std::vector<std::thread> pollers;
  for (std::size_t t = 0; t < n_targets; ++t) {
    pollers.emplace_back(
        [this, t, sweep_interval] { poll_loop(cluster_->target(t), sweep_interval); });
  }
  std::vector<std::thread> workers;
  workers.reserve(options_.worker_threads);
  const std::vector<std::size_t> per_target = split_workers(options_.worker_threads, n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    for (std::size_t slot = 0; slot < per_target[t]; ++slot) {
      workers.emplace_back([this, t, slot, &queues, &controller] {
        worker_loop(cluster_->target(t), slot, *queues[t], controller.get());
      });
    }
  }
  for (auto& t : workers) t.join();
  feeder.join();

  // --- drain: wait for in-flight transactions to land in blocks ---
  {
    util::TimePoint drain_deadline = clock_->now() + options_.drain_timeout;
    while (tracker_->pending_count() > 0 && clock_->now() < drain_deadline) {
      clock_->sleep_for(options_.poll_interval);
    }
    stop_polling_.store(true);
    for (auto& t : pollers) t.join();
    // Transactions that never landed before the drain deadline are no longer
    // in flight from the driver's perspective; zero the gauge's residue so
    // back-to-back runs start clean.
    DriverMetrics::get().inflight.sub(tracker_->pending_count());
  }

  // --- summarize ---
  std::vector<TxRecord> records = tracker_->records();
  RunResult result = summarize(records);
  if (const ShardedTaskProcessor* processor = tracker_->task_processor()) {
    result.processor = processor->stats_json();
  }
  if (options_.metrics) {
    // The pollers streamed completed records as they landed; catch any
    // stragglers completed after the last sweep, cache the still-pending
    // ones (TTL-armed), then drain so every buffered row is in SQL before
    // we return.
    std::vector<TxRecord> fresh;
    tracker_->drain_completed(fresh);
    for (const TxRecord& record : records) {
      if (!record.completed) fresh.push_back(record);
    }
    if (!fresh.empty()) options_.metrics->push_records(fresh);
    options_.metrics->flush_and_stop();
  }
  result.rejected = rejections_.load();
  result.send_failures = send_failures_.load();
  result.target_rate = load_->target_rate();
  result.offered_rate = load_->offered_rate();
  result.achieved_rate = result.tps;
  set_gauge(DriverMetrics::get().offered_rate,
            static_cast<std::int64_t>(result.offered_rate));
  set_gauge(DriverMetrics::get().achieved_rate,
            static_cast<std::int64_t>(result.achieved_rate));
  std::uint64_t retries_after = 0;
  for (const adapters::ChainAdapter* a : run_adapters) retries_after += a->retries();
  result.retries = retries_after - retries_before;
  json::Array targets_json;
  targets_json.reserve(n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    const SutTarget& target = cluster_->target(t);
    targets_json.push_back(
        json::object({{"target", static_cast<std::int64_t>(t)},
                      {"submitted", target.submitted() - submitted_before[t]},
                      {"completed", target.completed() - completed_before[t]},
                      {"shards", static_cast<std::int64_t>(target.shards().size())}}));
  }
  result.targets = json::Value(std::move(targets_json));
  if (options_.fault_injector) {
    result.faults = options_.fault_injector->counts_json();
  }
  if (tracer_) {
    result.stages = tracer_->breakdown().to_json();
  }
  if (merger_) {
    // Stitch: drain every target's server-side span ring and map it onto
    // the driver clock. Old SUTs without telemetry.spans contribute nothing
    // (fetch_spans returns empty); in-process deployments return the same
    // global ring from every endpoint and the merger dedups by span id.
    for (std::size_t t = 0; t < n_targets; ++t) {
      adapters::ChainAdapter& poll = *cluster_->target(t).poll_adapter();
      try {
        merger_->add_server_spans(t, poll.fetch_spans(), poll.clock_offset());
      } catch (const Error& e) {
        HLOG_WARN("driver") << "span fetch for target " << t << " failed: " << e.what();
      }
    }
    if (merger_->server_span_count() > 0 && result.stages.is_object()) {
      result.stages["remote"] = merger_->remote_breakdown().to_json();
    }
    if (!options_.trace_export_path.empty()) {
      std::ofstream out(options_.trace_export_path,
                        std::ios::binary | std::ios::trunc);
      if (out) {
        out << merger_->to_trace_json(tracer_->events()).dump();
        HLOG_INFO("driver") << "wrote trace timeline to " << options_.trace_export_path;
      } else {
        HLOG_WARN("driver") << "cannot open trace export path "
                            << options_.trace_export_path;
      }
    }
  }
  return result;
}

RunResult run_peak_probe(std::shared_ptr<SutCluster> cluster, std::shared_ptr<util::Clock> clock,
                         DriverOptions options, const workload::WorkloadFile& workload) {
  HammerDriver driver(std::move(cluster), std::move(clock), std::move(options));
  return driver.run(workload, nullptr);
}

}  // namespace hammer::core
