#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/errors.hpp"

namespace hammer::bench {

double percentile(std::vector<double>& samples, double p) {
  HAMMER_CHECK_MSG(!samples.empty(), "percentile of no samples");
  HAMMER_CHECK(p > 0.0 && p <= 100.0);
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> values) {
  HAMMER_CHECK_MSG(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

LatencySummary summarize_latency(std::vector<double> samples_us) {
  LatencySummary s;
  s.samples = samples_us.size();
  if (samples_us.empty()) return s;
  s.p50_ms = percentile(samples_us, 50.0) / 1000.0;
  s.p99_ms = percentile(samples_us, 99.0) / 1000.0;
  return s;
}

double due_us(std::uint64_t ordinal, std::int64_t schedule_start_us, double rate) {
  HAMMER_CHECK(rate > 0.0);
  return static_cast<double>(schedule_start_us) + static_cast<double>(ordinal) * 1e6 / rate;
}

std::vector<double> due_time_latencies_us(std::span<const core::TxRecord> records,
                                          std::int64_t schedule_start_us, double rate) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const core::TxRecord& r : records) {
    if (!r.completed || r.status != chain::TxStatus::kCommitted) continue;
    out.push_back(static_cast<double>(r.end_us) - due_us(r.ordinal, schedule_start_us, rate));
  }
  return out;
}

std::vector<double> send_latencies_us(std::span<const core::TxRecord> records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const core::TxRecord& r : records) {
    if (!r.completed || r.status != chain::TxStatus::kCommitted) continue;
    out.push_back(static_cast<double>(r.end_us - r.start_us));
  }
  return out;
}

std::vector<double> send_lags_us(std::span<const core::TxRecord> records,
                                 std::int64_t schedule_start_us, double rate) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const core::TxRecord& r : records) {
    out.push_back(static_cast<double>(r.start_us) - due_us(r.ordinal, schedule_start_us, rate));
  }
  return out;
}

// Hammer tracking marks a refused or written-off send invalid in its vector
// list, so RunResult::failed counts those too; only the rest are receipts.
std::uint64_t receipt_failures(const core::RunResult& r) {
  const std::uint64_t local = r.rejected + r.send_failures;
  return r.failed >= local ? r.failed - local : 0;
}

double abort_ratio(const core::RunResult& r) {
  return r.submitted == 0 ? 0.0
                          : static_cast<double>(receipt_failures(r)) /
                                static_cast<double>(r.submitted);
}

std::uint64_t errors(const core::RunResult& r) {
  return r.rejected + r.send_failures + r.unmatched;
}

double error_ratio(const core::RunResult& r) {
  return r.submitted == 0 ? 0.0
                          : static_cast<double>(errors(r)) / static_cast<double>(r.submitted);
}

std::vector<std::string> check_conservation(const core::RunResult& r,
                                            std::size_t workload_size) {
  std::vector<std::string> out;
  if (r.failed < r.rejected + r.send_failures) {
    out.push_back("conservation: " + std::to_string(r.rejected + r.send_failures) +
                  " refused or written-off sends but only " + std::to_string(r.failed) +
                  " records marked failed");
  }
  const std::uint64_t accounted =
      r.committed + receipt_failures(r) + r.rejected + r.unmatched + r.send_failures;
  if (r.submitted != accounted) {
    out.push_back("conservation: submitted " + std::to_string(r.submitted) +
                  " != committed+failed+rejected+unmatched+send_failures " +
                  std::to_string(accounted));
  }
  if (r.submitted != workload_size) {
    out.push_back("conservation: submitted " + std::to_string(r.submitted) +
                  " != workload size " + std::to_string(workload_size));
  }
  return out;
}

std::vector<std::string> check_receipts(
    std::span<const core::TxRecord> records,
    std::span<const std::optional<adapters::ChainAdapter::ReceiptInfo>> receipts,
    std::size_t max_messages) {
  std::vector<std::string> out;
  if (records.size() != receipts.size()) {
    out.push_back("receipts: " + std::to_string(receipts.size()) + " answers for " +
                  std::to_string(records.size()) + " records");
    return out;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::TxRecord& r = records[i];
    const auto& on_chain = receipts[i];
    std::string why;
    if (r.completed && !on_chain) {
      why = "recorded " + std::string(chain::tx_status_name(r.status)) + ", absent on chain";
    } else if (r.completed && on_chain->status != r.status) {
      why = "recorded " + std::string(chain::tx_status_name(r.status)) + ", chain says " +
            chain::tx_status_name(on_chain->status);
    } else if (!r.completed && on_chain && on_chain->status == chain::TxStatus::kCommitted) {
      why = "recorded pending or rejected, committed on chain";
    }
    if (why.empty()) continue;
    if (++bad <= max_messages) out.push_back("receipts: tx " + r.tx_id + " " + why);
  }
  if (bad > max_messages) {
    out.push_back("receipts: " + std::to_string(bad - max_messages) + " more mismatches");
  }
  return out;
}

std::vector<std::string> check_close(const std::string& what, double measured, double expected,
                                     double tolerance) {
  if (std::fabs(measured - expected) <= tolerance * std::fabs(expected)) return {};
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: measured %.6g, expected %.6g within %.0f%%", what.c_str(),
                measured, expected, tolerance * 100.0);
  return {buf};
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Non-finite values are not JSON; a metric that cannot be measured
    // reads as 0 and the run is already marked incorrect by its check.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace hammer::bench
