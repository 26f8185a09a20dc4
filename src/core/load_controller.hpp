// Closed-loop load control (DESIGN.md §14).
//
// A LoadController turns the driving path from "fixed count, best effort"
// into a rate-paced pipeline: worker threads acquire() one token per
// transaction before a send leaves, and the controller refills tokens at
// the target rate with a bounded burst allowance — the classic token
// bucket. rate = 0 is the degenerate open-loop case (acquire returns
// immediately), so paced and best-effort runs share one code path and one
// accounting surface.
//
// The controller is live-retargetable: set_rate() takes effect on the next
// refill, and waiting acquirers sleep in short slices so a mid-run
// control.set_rate never strands a worker in a stale long sleep. All state
// sits behind one mutex — acquire is called once per coalesced batch, not
// per transaction, so the lock is cold next to the send round trip it
// gates.
//
// Offered-rate accounting: the controller stamps the first and last token
// release of the run; offered_rate() is releases per second of that
// window. Because workers acquire at the send site, "offered" measures
// what actually left the client — under contention (CPU-burn faults, a
// saturated pipeline) it sags below the target, and that gap is itself a
// saturation signal (see core::SaturationSearch).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "util/clock.hpp"

namespace hammer::core {

struct LoadOptions {
  // Target aggregate send rate in tx/s. 0 = open loop (unlimited).
  double rate = 0.0;
  // Token-bucket capacity: how many sends may leave back-to-back after an
  // idle spell before pacing kicks in.
  double burst = 64.0;
};

class LoadController {
 public:
  LoadController(LoadOptions options, std::shared_ptr<util::Clock> clock);

  LoadController(const LoadController&) = delete;
  LoadController& operator=(const LoadController&) = delete;

  bool open_loop() const;     // target_rate() == 0
  double target_rate() const;

  // Live retarget; <= 0 switches to open loop. Takes effect within one
  // sleep slice (~10 ms) for already-waiting acquirers.
  void set_rate(double rate);

  // Blocks until n tokens are available (immediately in open loop). A batch
  // larger than the burst runs the bucket into debt rather than waiting for
  // a fill that can never come, so the long-run rate stays exact for any
  // batch size.
  void acquire(std::size_t n);

  // Clears the bucket and the offered-rate window for a fresh run. The
  // target rate is kept — reset() is per-run, set_rate() is per-plan.
  void reset();

  std::uint64_t released() const;

  // Tokens released per second between the first and last release of the
  // current window; 0 until two distinct release instants exist.
  double offered_rate() const;

 private:
  void refill_locked(util::TimePoint now);

  std::shared_ptr<util::Clock> clock_;
  mutable std::mutex mu_;
  double rate_;
  double burst_;
  double tokens_;
  util::TimePoint last_refill_;
  std::uint64_t released_ = 0;
  std::int64_t first_release_us_ = 0;
  std::int64_t last_release_us_ = 0;
};

}  // namespace hammer::core
