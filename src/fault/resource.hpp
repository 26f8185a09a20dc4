// Resource faults (DESIGN.md §14): continuous background contention driven
// by the same FaultPlan as the per-key injection kinds.
//
// Two mechanisms:
//   - ResourceFaults: an RAII runner owning cpu_burn spin threads (duty-
//     cycled busy loops that steal cores from the SUT/driver sharing the
//     box) and a touched mem_ballast allocation (resident pressure the
//     ResourceMonitor stream picks up). Started by a deployment when the
//     spec's FaultPlan has resource magnitudes; stopped/freed on teardown.
//   - IngressThrottle: a token bucket a TcpServer consults before admitting
//     each request, modeling per-target ingress bandwidth collapse. Unlike
//     slow_loris (which stalls the response write), throttling delays
//     admission, so a saturation search sees the target's capacity drop.
//
// Both are deterministic in configuration (magnitudes from the plan); their
// timing effect is inherently wall-clock, like the other latency faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "util/clock.hpp"

namespace hammer::telemetry {
class Counter;
}

namespace hammer::fault {

class ResourceFaults {
 public:
  // Starts the configured contention immediately. A plan with
  // cpu_burn_threads == 0 and mem_ballast_mb == 0 constructs an inert
  // runner (no threads, no allocation).
  explicit ResourceFaults(const FaultPlan& plan);
  ~ResourceFaults();

  ResourceFaults(const ResourceFaults&) = delete;
  ResourceFaults& operator=(const ResourceFaults&) = delete;

  void stop();  // idempotent; joins burn threads and frees the ballast

  std::uint32_t burn_threads() const { return static_cast<std::uint32_t>(burners_.size()); }
  std::uint64_t ballast_bytes() const { return ballast_.size(); }

 private:
  void burn_loop(double duty);

  std::atomic<bool> stop_{false};
  std::vector<std::thread> burners_;
  std::vector<char> ballast_;
};

// Token-bucket admission gate for a server's ingress path. Thread-safe;
// admit() blocks the calling worker until a token is available (bounded
// 10ms sleep slices so stop/teardown is never held up long).
class IngressThrottle {
 public:
  IngressThrottle(double rps, double burst, std::shared_ptr<util::Clock> clock);

  // Blocks until one request token is available. Returns the microseconds
  // spent waiting (0 = admitted immediately).
  std::int64_t admit();

  double rps() const { return rps_; }
  std::uint64_t throttled() const { return throttled_.load(std::memory_order_relaxed); }

 private:
  const double rps_;
  const double burst_;
  std::shared_ptr<util::Clock> clock_;
  telemetry::Counter* counter_ = nullptr;  // hammer_fault_ingress_throttled_total

  std::mutex mu_;
  double tokens_;
  util::TimePoint last_refill_;
  std::atomic<std::uint64_t> throttled_{0};
};

}  // namespace hammer::fault
