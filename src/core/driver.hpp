// Evaluation driver: sends a (signed) workload into a SUT through the
// adapter layer, tracks completion, and produces a RunResult.
//
// Three completion-tracking modes reproduce the paper's comparisons:
// Hammer's Algorithm 1, Blockbench-style queue matching and Caliper-style
// receipt listening. The mode only picks the CompletionTracker (see
// core/completion_tracker.hpp); the send path is the same for all three.
//
// The driving path is staged over a SutCluster:
//
//   sign ──▶ route ──▶ submit ──▶ detect
//
//   sign    one feeder thread signs the workload (or a serial pre-pass),
//   route   the feeder consults the RoutingPolicy and pushes each signed
//           transaction onto its target's MpmcQueue,
//   submit  per-target worker threads pop, coalesce and submit each batch
//           through the target's adapter pool in one submit_batch call,
//   detect  one poller thread per target sweeps the completion tracker
//           (blocks of the shards that target owns, or receipts).
//
// Load is either open-loop (a ControlSequence schedules send deadlines —
// the paper's temporal workload replay) or closed-loop (workers send
// back-to-back; used for peak-throughput search and the Fig. 10 sweeps).
//
// The optional client CPU model reproduces the paper's Fig. 10 testbed: the
// client machine has a fixed number of vCPUs, so per-transaction client
// work serializes beyond that concurrency and extra threads add scheduling
// overhead. Modeled as slept (not burned) time so the SUT sharing this box
// is unaffected.
#pragma once

#include <atomic>
#include <memory>
#include <semaphore>
#include <thread>

#include "adapters/chain_adapter.hpp"
#include "core/completion_tracker.hpp"
#include "core/load_controller.hpp"
#include "core/metrics.hpp"
#include "core/signing.hpp"
#include "core/sut_cluster.hpp"
#include "core/task_processor.hpp"
#include "fault/fault.hpp"
#include "telemetry/timeline.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/mpmc_queue.hpp"
#include "workload/control_sequence.hpp"
#include "workload/workload_file.hpp"

namespace hammer::core {

struct DriverOptions {
  TrackingMode mode = TrackingMode::kHammer;
  std::size_t worker_threads = 2;
  std::chrono::milliseconds poll_interval{25};
  // kInteractive only: the receipt listener's sweep interval.
  std::chrono::milliseconds interactive_poll{2};
  std::chrono::milliseconds drain_timeout{20000};
  std::string server_id = "server-0";

  // How the route stage picks a cluster target per transaction. Moot for
  // single-target clusters, where every road leads to target 0.
  RoutingKind routing = RoutingKind::kRoundRobin;

  bool pipelined_signing = true;  // false: sign the whole batch up front

  // Closed-loop pacing (DESIGN.md §14): workers acquire tokens from a
  // LoadController before every send. target_rate = 0 keeps the open-loop
  // degenerate case (acquire never waits) — fixed-count and paced runs
  // share one code path either way, and RunResult carries the
  // target/offered/achieved rates for both.
  double target_rate = 0.0;
  double rate_burst = 64.0;
  // Externally-owned controller (e.g. a WorkerSession retargeted live via
  // control.set_rate). Null: the driver builds its own from the two knobs
  // above.
  std::shared_ptr<LoadController> load;

  // Transactions coalesced into one JSON-RPC batch round trip per worker
  // send (1 = the blocking single-call baseline). Raising this is the
  // client-side lever for driving the SUT faster than one round trip per
  // transaction allows; see bench_tcp_transport for the measured effect.
  std::size_t submit_batch_size = 1;

  // Client CPU model (0 disables). per_tx_client_us of work serialized over
  // client_vcpus, plus scheduling overhead per tx when threads exceed the
  // core count.
  std::uint32_t client_vcpus = 0;
  std::int64_t per_tx_client_us = 0;
  std::int64_t switch_penalty_us = 0;

  // Lifecycle tracing: every n-th transaction (by workload ordinal) records
  // sign/enqueue/submit/include/detect timestamps into a bounded ring
  // buffer; the per-stage breakdown lands in RunResult::stages. 0 disables.
  std::uint64_t trace_every_n = 0;

  // Distributed tracing (requires trace_every_n > 0): sampled transactions'
  // batch frames carry a wire-propagated trace context; at run end the
  // driver fetches each target's server-side spans (telemetry.spans),
  // aligns clocks, and adds the stitched critical path to
  // RunResult::stages["remote"]. When non-empty, a Chrome trace_event JSON
  // document (Perfetto-loadable) of the whole run is written here.
  std::string trace_export_path;

  // task_processor.shards > 1 swaps the flat Algorithm 1 processor for K
  // independent shards keyed by tx-id hash (identical observable results;
  // see ShardedTaskProcessor).
  TaskProcessor::Options task_processor;

  // Optional metrics pipeline; when set, completed records stream into the
  // cache during the run and the run ends with its flush_and_stop().
  std::shared_ptr<MetricsPipeline> metrics;

  // Optional: the injector driving this run's fault plan (client- or
  // SUT-side). The driver never draws from it — it only snapshots the
  // injected-fault counts into RunResult::faults.
  std::shared_ptr<fault::FaultInjector> fault_injector;
};

// Parses the "driver" sub-object of a control.deploy plan (or a tune trial)
// into DriverOptions. Accepted keys: worker_threads, submit_batch_size,
// routing, drain_timeout_ms, poll_interval_ms, task_shards,
// pipelined_signing, trace_every_n, channels_per_target, target_rate,
// rate_burst. Unknown keys, and integer knobs below their floor
// (counts and poll_interval_ms >= 1, the rest >= 0), are rejected by name —
// the contract Deployment enforces for chain specs, so a tuner or
// coordinator cannot silently search/push a bad knob. `channels_per_target`
// (when non-null) receives the cluster fan-in knob, which lives beside the
// DriverOptions because it shapes the SutCluster, not the driver.
DriverOptions driver_options_from_json(const json::Value& v,
                                       std::size_t* channels_per_target = nullptr);

// True when `key` is one driver_options_from_json accepts ("driver.<key>"
// knobs in a tune spec validate against this).
bool is_known_driver_option_key(const std::string& key);

class HammerDriver {
 public:
  // Drives every target of `cluster`; options.worker_threads is the TOTAL
  // worker count, split across targets (each target gets at least one).
  HammerDriver(std::shared_ptr<SutCluster> cluster, std::shared_ptr<util::Clock> clock,
               DriverOptions options);

  // Runs the workload. `rate` schedules open-loop sends; nullptr = closed
  // loop. Blocks until every transaction completes or drain_timeout passes.
  RunResult run(const workload::WorkloadFile& workload,
                const workload::ControlSequence* rate);

  // Post-run diagnostics. The Algorithm 1 processor of the last run; null
  // before the first run and in the baseline modes.
  const ShardedTaskProcessor* task_processor() const {
    return tracker_ ? tracker_->task_processor() : nullptr;
  }

 private:
  struct SendQueueItem {
    chain::Transaction tx;
    std::string id;             // derived from the payload the feeder signed
    std::uint64_t ordinal = 0;  // position in the workload, for tracing
  };
  using SendQueue = util::MpmcQueue<SendQueueItem>;

  void worker_loop(SutTarget& target, std::size_t slot, SendQueue& queue,
                   workload::RateController* rate);
  void poll_loop(SutTarget& target, util::Duration interval);  // detect stage, one per target
  void charge_client_cpu();

  std::shared_ptr<SutCluster> cluster_;
  std::shared_ptr<util::Clock> clock_;
  DriverOptions options_;
  std::shared_ptr<LoadController> load_;
  std::shared_ptr<KeyCache> keys_ = std::make_shared<KeyCache>();

  std::unique_ptr<CompletionTracker> tracker_;
  // Per-run lifecycle tracer and cross-process trace stitching; null when
  // tracing is off.
  std::unique_ptr<telemetry::TxTracer> tracer_;
  std::unique_ptr<telemetry::TraceMerger> merger_;
  // Trace ids are allocated per traced batch frame; 0 means unsampled, so
  // the counter starts at 1 and never wraps to 0 in practice.
  std::atomic<std::uint64_t> next_trace_id_{1};

  std::unique_ptr<std::counting_semaphore<64>> client_cores_;
  std::atomic<std::uint64_t> rejections_{0};
  // Transactions written off because a worker exhausted its retry policy
  // (the run kept going — graceful degradation, not an abort).
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<bool> stop_polling_{false};
};

// Convenience: searches the SUT's saturation throughput by driving a
// closed-loop burst of the whole workload and reporting the measured TPS
// (used by the Fig. 6 / Fig. 7 peak-performance benches).
RunResult run_peak_probe(std::shared_ptr<SutCluster> cluster, std::shared_ptr<util::Clock> clock,
                         DriverOptions options, const workload::WorkloadFile& workload);

}  // namespace hammer::core
