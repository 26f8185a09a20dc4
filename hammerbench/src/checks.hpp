// The benchmark's own arithmetic and self-checks, kept free of I/O so the
// tests can feed them hand-made and deliberately broken inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adapters/chain_adapter.hpp"
#include "core/metrics.hpp"
#include "core/task_processor.hpp"

namespace hammer::bench {

// Nearest-rank percentile (p in (0, 100]) of `samples`; reorders them.
// Throws when `samples` is empty.
double percentile(std::vector<double>& samples, double p);

double median(std::vector<double> values);

// A latency distribution as printed: p50/p99 in ms plus the sample count.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
};
LatencySummary summarize_latency(std::vector<double> samples_us);

// Open-loop timing: ordinal i of a constant-rate schedule starting at
// `schedule_start_us` is due at schedule_start_us + i * 1e6 / rate.
double due_us(std::uint64_t ordinal, std::int64_t schedule_start_us, double rate);

// Latency samples (µs) of committed records, timed from the due time (paced
// runs) or from the send stamp (closed loop).
std::vector<double> due_time_latencies_us(std::span<const core::TxRecord> records,
                                          std::int64_t schedule_start_us, double rate);
std::vector<double> send_latencies_us(std::span<const core::TxRecord> records);

// How late each send left against its due time (µs, every record).
std::vector<double> send_lags_us(std::span<const core::TxRecord> records,
                                 std::int64_t schedule_start_us, double rate);

// Invalid + conflict receipts: RunResult::failed minus the sends Hammer
// tracking marked failed locally (rejected, written off).
std::uint64_t receipt_failures(const core::RunResult& r);

// Semantic aborts (receipt failures) and tool/transport loss (rejected +
// send failures + unmatched), each over submitted.
double abort_ratio(const core::RunResult& r);
double error_ratio(const core::RunResult& r);
std::uint64_t errors(const core::RunResult& r);

// Each check returns one message per violation; empty means it held.

// submitted == committed + receipt failures + rejected + unmatched +
//              send_failures == workload_size.
std::vector<std::string> check_conservation(const core::RunResult& r, std::size_t workload_size);

// Every completed record's status must match the SUT's chain.receipts answer
// (aligned with `records` by index); records never completed must not be on
// chain as committed. At most `max_messages` messages are returned.
std::vector<std::string> check_receipts(
    std::span<const core::TxRecord> records,
    std::span<const std::optional<adapters::ChainAdapter::ReceiptInfo>> receipts,
    std::size_t max_messages = 5);

// |measured - expected| <= tolerance * expected.
std::vector<std::string> check_close(const std::string& what, double measured, double expected,
                                     double tolerance);

// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The last line the benchmark prints:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace hammer::bench
