// hammerbench: Hammer's benchmark. One invocation runs one workload.
//
//   hammerbench --workload replay|peak|cluster --seed N --seconds S --trace 0|1
//
// --trace 0 runs the workload in rounds of about 3.3 s (each: set up, run,
// check, tear down) and prints the end-to-end metrics. --trace 1 runs the
// layer ledger, then one untraced and one traced round, and prints the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// nonzero when a self-check failed. README.md lists every metric.
//
// `hammerbench --serve-sut cluster` is the remote SUT the cluster workload
// forks; it is not meant to be run by hand.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "checks.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace hammer::bench {
namespace {

// Each round replays about this much schedule (peak: its fixed 100k txs,
// about as long); a run of S seconds is S / kRoundSeconds rounds, at least 3.
constexpr double kRoundSeconds = 10.0 / 3.0;
// Set-up is short, so setup_s is the median of these extra set-ups too.
constexpr int kExtraSetups = 6;
constexpr std::size_t kLedgerTxs = 20000;
constexpr std::size_t kLedgerBlockTxs = 300;  // receipts per sealed block

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hammerbench: %s\nusage: hammerbench --workload replay|peak|cluster --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-32s %16.6f %-6s%s\n", m.name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

void print_round(const char* kind, int i, const RoundResult& r) {
  const LatencySummary lat = summarize_latency(r.latency_us);
  std::printf(
      "round %d (%s): %llu txs  setup %.3f s  run %.3f s  committed %.1f tx/s  cpu %.2f us/tx  "
      "p50 %.3f ms  p99 %.3f ms (n=%zu)  abort %.4f  errors %llu  rss %.1f MB\n",
      i, kind, static_cast<unsigned long long>(r.submitted), r.setup_s, r.run_s,
      r.committed_tps, r.cpu_us_per_tx, lat.p50_ms, lat.p99_ms, lat.samples, r.abort_ratio,
      static_cast<unsigned long long>(r.errors), r.peak_rss_mb);
  for (const std::string& v : r.violations) std::printf("  CHECK FAILED: %s\n", v.c_str());
}

int finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics) {
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int rounds_for(double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / kRoundSeconds)));
}

// --trace 0: end-to-end metrics over rounds_for(seconds) rounds.
int run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  const int rounds = rounds_for(args.seconds);
  RoundOptions options;
  options.seconds = args.seconds / rounds;
  std::vector<double> setup, tps, rss, p50, p99;
  std::size_t samples = 0;
  double cpu_us = 0.0, committed = 0.0, aborted = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  for (int i = 0; i < rounds; ++i) {
    options.seed = round_seed(args.seed, i);
    RoundResult r = run_round(spec, options);
    print_round("untraced", i, r);
    setup.push_back(r.setup_s);
    tps.push_back(r.committed_tps);
    rss.push_back(r.peak_rss_mb);
    cpu_us += r.cpu_us_per_tx * static_cast<double>(r.committed);
    committed += static_cast<double>(r.committed);
    aborted += static_cast<double>(r.aborted);
    const LatencySummary lat = summarize_latency(r.latency_us);
    if (lat.samples > 0) {
      p50.push_back(lat.p50_ms);
      p99.push_back(lat.p99_ms);
    }
    samples += lat.samples;
    attempted += r.submitted;
    failed += r.errors;
    correct = correct && r.violations.empty();
  }
  options.setup_only = true;
  for (int i = 0; i < kExtraSetups; ++i) setup.push_back(run_round(spec, options).setup_s);
  std::printf("set-up: median of %zu (%d rounds + %d set-up only)\n", setup.size(), rounds,
              kExtraSetups);
  if (p50.empty()) {
    std::printf("  CHECK FAILED: no committed transactions to time\n");
    correct = false;
    p50 = p99 = {0.0};
  }
  const std::vector<Metric> metrics = {
      {"committed_tps", median(tps), "tx/s"},
      {"cpu_us_per_tx", committed > 0.0 ? cpu_us / committed : 0.0, "us"},
      {"latency_p50_ms", median(p50), "ms"},
      {"latency_p99_ms", median(p99), "ms"},
      {"abort_ratio", attempted > 0 ? aborted / static_cast<double>(attempted) : 0.0, "ratio"},
      {"peak_rss_mb", median(rss), "MB"},
      {"setup_s", median(setup), "s"},
  };
  const std::string note = "  (n=" + std::to_string(samples) + ")";
  std::printf("%s end-to-end (cpu and abort pooled over %d rounds, the rest medians of the "
              "rounds; latency timed from %s):\n",
              spec.name.c_str(), rounds, spec.rate > 0.0 ? "due time" : "send stamp");
  for (const Metric& m : metrics) print_metric(m, m.name.rfind("latency_", 0) == 0 ? note : "");
  std::printf("  %-32s %16.6f %-6s\n", "error_ratio",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  return finish(correct, attempted, failed, metrics);
}

// --trace 1: ledger, then an untraced and a traced round.
int run_per_layer(const WorkloadSpec& spec, const Args& args) {
  // The ledger runs first in a fresh process so its allocation counts see
  // the same lazily-initialised state on every run.
  const double round_seconds = args.seconds / rounds_for(args.seconds);
  const std::size_t ledger_txs = std::min(kLedgerTxs, round_size(spec, round_seconds));
  LedgerResult ledger = run_ledger(workload_profile(round_seed(args.seed, 0)),
                                   genesis_accounts(spec), ledger_txs, kLedgerBlockTxs);
  std::printf("%s layer ledger (%zu txs, one thread):\n", spec.name.c_str(), ledger_txs);
  for (const Metric& m : ledger.metrics) print_metric(m);
  for (const std::string& v : ledger.violations) std::printf("  CHECK FAILED: %s\n", v.c_str());

  RoundOptions options;
  options.seed = round_seed(args.seed, 0);  // both rounds replay the ledger's workload
  options.seconds = round_seconds;
  RoundResult plain = run_round(spec, options);
  print_round("untraced", 0, plain);
  options.traced = true;
  RoundResult traced = run_round(spec, options);
  print_round("traced", 1, traced);

  const Metric overhead{
      "trace.overhead_ratio",
      plain.cpu_us_per_tx > 0.0 ? traced.cpu_us_per_tx / plain.cpu_us_per_tx : 0.0, "ratio"};
  std::printf("%s traced run (every %llu-th tx; stages are means):\n", spec.name.c_str(),
              static_cast<unsigned long long>(kTraceEveryN));
  for (const Metric& m : traced.layers) print_metric(m);
  print_metric(overhead);

  std::vector<Metric> metrics = ledger.metrics;
  metrics.insert(metrics.end(), traced.layers.begin(), traced.layers.end());
  metrics.push_back(overhead);
  metrics.push_back({"error_ratio", plain.error_ratio, "ratio"});
  metrics.push_back({"latency.samples", static_cast<double>(plain.latency_us.size()), "count"});

  const bool correct =
      ledger.violations.empty() && plain.violations.empty() && traced.violations.empty();
  return finish(correct, plain.submitted + traced.submitted, plain.errors + traced.errors,
                metrics);
}

}  // namespace
}  // namespace hammer::bench

int main(int argc, char** argv) {
  using namespace hammer::bench;
  try {
    if (argc == 3 && std::string(argv[1]) == "--serve-sut") return serve_sut(argv[2]);
    const Args args = parse_args(argc, argv);
    const WorkloadSpec spec = workload_spec(args.workload);
    return args.trace == 0 ? run_end_to_end(spec, args) : run_per_layer(spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hammerbench: %s\n", e.what());
    return 2;
  }
}
