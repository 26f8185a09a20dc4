#include "rpc/retry.hpp"

#include <algorithm>
#include <thread>

#include "rpc/jsonrpc.hpp"
#include "telemetry/registry.hpp"
#include "util/errors.hpp"
#include "util/random.hpp"

namespace hammer::rpc {

namespace {
telemetry::Counter& retries_counter() {
  static telemetry::Counter& counter = telemetry::MetricRegistry::global().counter(
      "hammer_rpc_retries_total", "RPC attempts beyond the first (adapter retry policy)");
  return counter;
}
}  // namespace

const char* to_string(ErrorClass c) {
  switch (c) {
    case ErrorClass::kTimeout: return "timeout";
    case ErrorClass::kTransport: return "transport";
    case ErrorClass::kRejected: return "rejected";
    case ErrorClass::kProtocol: return "protocol";
  }
  return "unknown";
}

ErrorClass classify_current_exception() {
  // Order matters: FrameTooLargeError and TimeoutError both derive from
  // TransportError (catch-compatibility) but classify differently, and
  // RejectedError is the mapped form of kServerError RpcErrors.
  try {
    throw;
  } catch (const FrameTooLargeError&) {
    return ErrorClass::kProtocol;  // identical on every attempt; never retry
  } catch (const TimeoutError&) {
    return ErrorClass::kTimeout;
  } catch (const TransportError&) {
    return ErrorClass::kTransport;
  } catch (const RejectedError&) {
    return ErrorClass::kRejected;
  } catch (const RpcError& e) {
    return e.code() == kServerError ? ErrorClass::kRejected : ErrorClass::kProtocol;
  } catch (...) {
    return ErrorClass::kProtocol;
  }
}

bool RetryPolicy::retries(ErrorClass c) const {
  switch (c) {
    case ErrorClass::kTimeout: return on_timeout;
    case ErrorClass::kTransport: return on_transport;
    case ErrorClass::kRejected: return on_rejected;
    case ErrorClass::kProtocol: return false;
  }
  return false;
}

std::chrono::microseconds RetryPolicy::backoff(std::uint32_t failed_attempts,
                                               double draw) const {
  HAMMER_CHECK(failed_attempts >= 1);
  double base_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(initial_backoff).count());
  const double cap_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(max_backoff).count());
  for (std::uint32_t i = 1; i < failed_attempts && base_us < cap_us; ++i) {
    base_us *= multiplier;
  }
  base_us = std::min(base_us, cap_us);
  double factor = 1.0 - std::clamp(jitter, 0.0, 1.0) * draw;
  return std::chrono::microseconds(static_cast<std::int64_t>(base_us * factor));
}

RetryPolicy RetryPolicy::standard(std::uint32_t attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  return p;
}

void Retryer::before_retry(std::uint32_t failed_attempts) {
  const std::uint64_t ordinal = retries_.fetch_add(1, std::memory_order_relaxed);
  retries_counter().add(1);
  const std::chrono::microseconds wait =
      policy_.backoff(failed_attempts, util::unit(0x5eed5eedULL, 0, ordinal));
  // Real time, not the injected Clock: backoff is client-side transport
  // behaviour, and the channels it protects already run on real sockets.
  if (wait.count() > 0) std::this_thread::sleep_for(wait);
}

}  // namespace hammer::rpc
