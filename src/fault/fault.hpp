// Deterministic fault injection (DESIGN.md §8).
//
// A FaultPlan names the failure modes the run should exhibit — connection
// resets and latency spikes on the client channel, dropped/stalled
// responses on the server dispatcher, transient rejections / endorsement
// failures / block-production stalls inside the SUT — each with a
// probability and (where applicable) a magnitude, plus one seed.
//
// A FaultInjector decides each fault from what it is about, not from when
// it was asked: `u = util::unit(seed, kind, key)`, and the fault fires when
// u < p and (kind, key) has not fired before. Sites that act on a
// transaction key by chain::Transaction::fault_key() (sender, client id,
// nonce): sched_delay, submit_reject and endorse_fail at SUT admission, and
// conn_reset and client_latency on the client frames that carry
// transactions (the adapter's chain.submit and in-doubt chain.receipts).
// The channel asks every key of a frame and faults the frame when any
// fired, so the transactions hit are {X : u(seed, kind, X) < p} whatever
// the frame cut, worker count or CPU load. Sites with no transaction stay
// timing-driven: block_stall is keyed by (shard, height); drop_response,
// slow_loris and client frames without transactions by a per-connection
// frame counter.
//
// Counts count transactions (keys) hit, not frames faulted. A key fires at
// most once, so an injector reused across runs that resend the same
// transactions does not fire on them twice: build one per run to replay.
// Installees (TcpChannel, TcpServer, Blockchain) ask should()/any() and
// apply the effect themselves; a kind with p = 0 never hashes, and a draw
// with u >= p takes no lock.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>

#include "json/json.hpp"

namespace hammer::telemetry {
class Counter;
}

namespace hammer::fault {

enum class FaultKind : std::size_t {
  kConnReset = 0,   // client: shut the socket down before a send
  kClientLatency,   // client: sleep before a send (network latency spike)
  kDropResponse,    // server: execute the request, never answer it
  kSlowLoris,       // server: stall the response write
  kSubmitReject,    // SUT: transient chain.submit rejection
  kEndorseFail,     // SUT: Fabric endorsement failure on submit
  kBlockStall,      // SUT: block producer sleeps one extra stall interval
  kSchedDelay,      // SUT: scheduler-delay injection on the submit path
  kCount
};

inline constexpr std::size_t kFaultKindCount = static_cast<std::size_t>(FaultKind::kCount);

// Stable snake_case names, used for telemetry labels and counts_json keys.
const char* to_string(FaultKind kind);

struct FaultPlan {
  std::uint64_t seed = 1;

  double conn_reset_p = 0.0;
  double client_latency_p = 0.0;
  std::int64_t client_latency_us = 20000;
  double drop_response_p = 0.0;
  double slow_loris_p = 0.0;
  std::int64_t slow_loris_us = 20000;
  double submit_reject_p = 0.0;
  double endorse_fail_p = 0.0;
  double block_stall_p = 0.0;
  std::int64_t block_stall_ms = 200;
  double sched_delay_p = 0.0;
  std::int64_t sched_delay_us = 2000;

  // Resource faults: continuous background contention rather than
  // per-key decisions. Run by
  // fault::ResourceFaults (CPU burn, memory ballast) and
  // fault::IngressThrottle (per-target admission throttling on TcpServer);
  // correlate the effect with the ResourceMonitor stream in RunReport.
  std::uint32_t cpu_burn_threads = 0;   // 0 = off
  double cpu_burn_duty = 1.0;           // fraction of each period spent spinning
  std::uint64_t mem_ballast_mb = 0;     // touched resident allocation, 0 = off
  double ingress_rps = 0.0;             // per-endpoint admission rate, 0 = off
  double ingress_burst = 64.0;

  bool enabled() const;  // any probability > 0
  // Any continuous contention configured (CPU burn, ballast, throttle).
  bool has_resource_faults() const;
  double probability(FaultKind kind) const;

  static FaultPlan from_json(const json::Value& v);
  json::Value to_json() const;

  // The per-worker flavour of this plan for a distributed fleet: identical
  // probabilities/magnitudes, seed replaced by
  // util::derive_seed(seed, worker_index) — so N workers sharing one master
  // plan make N decorrelated sets of decisions, yet every worker's trace is
  // a pure function of (master seed, worker index).
  FaultPlan derived_for_worker(std::uint64_t worker_index) const;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Decides `kind` for `key`; true means inject. A firing also bumps the
  // process-global hammer_fault_injected_total{kind=...} counter.
  bool should(FaultKind kind, std::uint64_t key);
  // Decides `kind` for every key of one frame, without short-circuiting;
  // true when any fired.
  bool any(FaultKind kind, std::span<const std::uint64_t> keys);

  std::uint64_t injected(FaultKind kind) const;  // keys fired
  std::uint64_t total_injected() const;

  // {"conn_reset": n, ..., "total": m} — every kind, zeros included, so two
  // traces can be compared with one dump() equality check.
  json::Value counts_json() const;

 private:
  struct Site {
    double p = 0.0;
    std::unordered_set<std::uint64_t> fired;  // guarded by fired_mu_
    telemetry::Counter* counter = nullptr;
  };

  FaultPlan plan_;
  std::array<Site, kFaultKindCount> sites_;
  mutable std::mutex fired_mu_;
};

}  // namespace hammer::fault
