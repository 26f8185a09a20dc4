// Policy-driven retry for adapter calls (DESIGN.md §8).
//
// A failed call lands in one of four client error classes (the PR 1
// taxonomy): kTimeout (deadline passed with no response — the call is IN
// DOUBT: the server may have executed it), kTransport (connection-level
// failure), kRejected (the SUT refused the operation: kServerError), and
// kProtocol (malformed request/response, unknown method — retrying cannot
// help). A RetryPolicy says which classes to retry and how long to back
// off between attempts: exponential growth clamped at max_backoff, scaled
// by a jitter factor. The Retryer takes the n-th retry's draw as
// util::unit(constant, 0, n), so a schedule depends only on the retry
// ordinal and no random stream or lock sits behind it.
//
// The default policy is a single attempt — existing call sites keep their
// exact pre-retry behaviour unless they opt in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace hammer::rpc {

enum class ErrorClass { kTimeout, kTransport, kRejected, kProtocol };

const char* to_string(ErrorClass c);

// Maps the in-flight exception onto an ErrorClass. Must be called from
// inside a catch block; the exception stays active for a later `throw;`.
ErrorClass classify_current_exception();

struct RetryPolicy {
  // Total attempts including the first; 1 = no retry.
  std::uint32_t max_attempts = 1;

  std::chrono::milliseconds initial_backoff{5};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{500};
  // Backoff is scaled by a factor drawn uniformly from [1 - jitter, 1], so
  // jitter = 0 gives the exact exponential schedule.
  double jitter = 0.5;

  bool on_transport = true;
  bool on_timeout = true;
  // Off by default: a rejection is an application-level verdict (overload,
  // bad signature) and most callers must count it, not mask it. Fault-storm
  // runs turn it on to ride out injected transient rejections.
  bool on_rejected = false;

  bool enabled() const { return max_attempts > 1; }
  bool retries(ErrorClass c) const;

  // Backoff before the next attempt after `failed_attempts` failures
  // (>= 1), jittered by `draw` in [0, 1).
  std::chrono::microseconds backoff(std::uint32_t failed_attempts, double draw) const;

  // A reasonable default for flaky-infrastructure runs.
  static RetryPolicy standard(std::uint32_t attempts = 4);
};

// Shared retry executor: owns the policy and the retry counter (also
// surfaced as hammer_rpc_retries_total), whose ordinal keys each jitter
// draw. Thread-safe; one Retryer per ChainAdapter.
class Retryer {
 public:
  explicit Retryer(RetryPolicy policy) : policy_(policy) {}

  std::uint64_t retry_count() const { return retries_.load(std::memory_order_relaxed); }

  // Counts one retry and sleeps the jittered backoff for `failed_attempts`
  // failures so far. Exposed for callers (submit_batch) that need custom
  // per-attempt work between failures.
  void before_retry(std::uint32_t failed_attempts);

  // Runs `op` under the policy: rethrows immediately for non-retryable
  // classes, otherwise backs off and retries up to max_attempts total.
  template <typename F>
  auto run(F&& op) -> decltype(op()) {
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        return op();
      } catch (...) {
        ErrorClass cls = classify_current_exception();
        if (attempt >= policy_.max_attempts || !policy_.retries(cls)) throw;
        before_retry(attempt);
      }
    }
  }

 private:
  RetryPolicy policy_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace hammer::rpc
