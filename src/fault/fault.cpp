#include "fault/fault.hpp"

#include <utility>

#include "telemetry/registry.hpp"
#include "util/errors.hpp"
#include "util/random.hpp"

namespace hammer::fault {

namespace {

// One row per FaultKind, in enum order: its name (also the prefix of its
// "<name>_p" JSON key) and its probability field.
struct KindRow {
  const char* name;
  double FaultPlan::*p;
};
constexpr KindRow kKinds[kFaultKindCount] = {
    {"conn_reset", &FaultPlan::conn_reset_p},       {"client_latency", &FaultPlan::client_latency_p},
    {"drop_response", &FaultPlan::drop_response_p}, {"slow_loris", &FaultPlan::slow_loris_p},
    {"submit_reject", &FaultPlan::submit_reject_p}, {"endorse_fail", &FaultPlan::endorse_fail_p},
    {"block_stall", &FaultPlan::block_stall_p},     {"sched_delay", &FaultPlan::sched_delay_p}};

constexpr std::pair<const char*, std::int64_t FaultPlan::*> kMagnitudes[] = {
    {"client_latency_us", &FaultPlan::client_latency_us},
    {"slow_loris_us", &FaultPlan::slow_loris_us},
    {"block_stall_ms", &FaultPlan::block_stall_ms},
    {"sched_delay_us", &FaultPlan::sched_delay_us}};

}  // namespace

const char* to_string(FaultKind kind) {
  return kind < FaultKind::kCount ? kKinds[static_cast<std::size_t>(kind)].name : "unknown";
}

bool FaultPlan::enabled() const {
  for (const KindRow& row : kKinds) {
    if (this->*row.p > 0.0) return true;
  }
  return false;
}

double FaultPlan::probability(FaultKind kind) const {
  return kind < FaultKind::kCount ? this->*kKinds[static_cast<std::size_t>(kind)].p : 0.0;
}

bool FaultPlan::has_resource_faults() const {
  return cpu_burn_threads > 0 || mem_ballast_mb > 0 || ingress_rps > 0.0;
}

FaultPlan FaultPlan::from_json(const json::Value& v) {
  // Sizes and magnitudes are range-checked as signed values, before any
  // cast to an unsigned field turns -1 into 2^32-1 burner threads.
  auto non_negative = [&v](const std::string& key, std::int64_t fallback) {
    std::int64_t n = v.get_int(key, fallback);
    if (n < 0) throw ParseError("faults." + key + " must be >= 0");
    return n;
  };
  FaultPlan p;
  p.seed = static_cast<std::uint64_t>(v.get_int("seed", static_cast<std::int64_t>(p.seed)));
  for (const KindRow& row : kKinds) {
    p.*row.p = v.get_double(std::string(row.name) + "_p", p.*row.p);
    if (p.*row.p < 0.0 || p.*row.p > 1.0) {
      throw ParseError(std::string("fault probability out of [0,1] for ") + row.name);
    }
  }
  for (const auto& [key, field] : kMagnitudes) p.*field = non_negative(key, p.*field);
  p.cpu_burn_threads =
      static_cast<std::uint32_t>(non_negative("cpu_burn_threads", p.cpu_burn_threads));
  p.cpu_burn_duty = v.get_double("cpu_burn_duty", p.cpu_burn_duty);
  p.mem_ballast_mb = static_cast<std::uint64_t>(
      non_negative("mem_ballast_mb", static_cast<std::int64_t>(p.mem_ballast_mb)));
  p.ingress_rps = v.get_double("ingress_rps", p.ingress_rps);
  p.ingress_burst = v.get_double("ingress_burst", p.ingress_burst);
  if (p.cpu_burn_duty < 0.0 || p.cpu_burn_duty > 1.0) {
    throw ParseError("cpu_burn_duty out of [0,1]");
  }
  if (p.ingress_rps < 0.0) throw ParseError("ingress_rps must be >= 0");
  if (p.ingress_burst <= 0.0) throw ParseError("ingress_burst must be > 0");
  return p;
}

json::Value FaultPlan::to_json() const {
  json::Object obj;
  obj["seed"] = seed;
  for (const KindRow& row : kKinds) obj[std::string(row.name) + "_p"] = this->*row.p;
  for (const auto& [key, field] : kMagnitudes) obj[key] = this->*field;
  obj["cpu_burn_threads"] = static_cast<std::int64_t>(cpu_burn_threads);
  obj["cpu_burn_duty"] = cpu_burn_duty;
  obj["mem_ballast_mb"] = static_cast<std::int64_t>(mem_ballast_mb);
  obj["ingress_rps"] = ingress_rps;
  obj["ingress_burst"] = ingress_burst;
  return json::Value(std::move(obj));
}

FaultPlan FaultPlan::derived_for_worker(std::uint64_t worker_index) const {
  FaultPlan derived = *this;
  derived.seed = util::derive_seed(seed, worker_index);
  return derived;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::global();
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    auto kind = static_cast<FaultKind>(k);
    sites_[k].p = plan_.probability(kind);
    sites_[k].counter = &reg.counter("hammer_fault_injected_total", "Faults injected by kind",
                                     "kind=\"" + std::string(to_string(kind)) + "\"");
  }
}

bool FaultInjector::should(FaultKind kind, std::uint64_t key) {
  Site& site = sites_[static_cast<std::size_t>(kind)];
  if (site.p <= 0.0) return false;  // disabled kinds never hash
  if (util::unit(plan_.seed, static_cast<std::uint64_t>(kind), key) >= site.p) return false;
  {
    std::scoped_lock lock(fired_mu_);
    if (!site.fired.insert(key).second) return false;  // fires at most once per key
  }
  site.counter->add(1);
  return true;
}

bool FaultInjector::any(FaultKind kind, std::span<const std::uint64_t> keys) {
  bool fired = false;
  for (std::uint64_t key : keys) fired |= should(kind, key);
  return fired;
}

std::uint64_t FaultInjector::injected(FaultKind kind) const {
  std::scoped_lock lock(fired_mu_);
  return sites_[static_cast<std::size_t>(kind)].fired.size();
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) total += injected(static_cast<FaultKind>(k));
  return total;
}

json::Value FaultInjector::counts_json() const {
  json::Object obj;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    auto kind = static_cast<FaultKind>(k);
    obj[to_string(kind)] = injected(kind);
  }
  obj["total"] = total_injected();
  return json::Value(std::move(obj));
}

}  // namespace hammer::fault
