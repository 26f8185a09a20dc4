// The three benchmark workloads and the round that runs one of them:
// set up (deploy + genesis + generate + cluster construction), run
// HammerDriver::run, check the outputs, tear down.
//
//   replay   in-process Neuchain, signatures verified; a constant 6,000 tx/s
//            ControlSequence replayed open loop; write-behind
//            MetricsPipeline plus the Table II queries.
//   peak     the same Neuchain without verification (a stand-in null SUT);
//            closed loop over 100k transactions, submit batches of 16.
//   cluster  2-shard Meepo in a forked child process behind two TCP
//            endpoints (binary codec); make_remote_cluster, shard-affine
//            routing, one worker and one channel per target; open loop at
//            1,500 tx/s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "json/json.hpp"
#include "workload/profile.hpp"

namespace hammer::bench {

struct WorkloadSpec {
  std::string name;
  json::Value chain;        // Deployment chain spec
  bool remote = false;      // SUT in a forked child, reached over TCP
  double rate = 0.0;        // open-loop tx/s; 0 = closed loop
  std::size_t closed_loop_txs = 0;
  std::size_t submit_batch_size = 1;
  std::size_t task_shards = 1;
  bool shard_routing = false;
  bool metrics_pipeline = false;
};

// Throws ParseError for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

// Transactions one round of `spec` sends: rate x seconds (rounded to the
// schedule's 100 ms slices) when paced, the fixed count when closed loop.
std::size_t round_size(const WorkloadSpec& spec, double seconds);

workload::WorkloadProfile workload_profile(std::uint64_t seed);

// The workload seed of round `round` of a run given --seed `seed`. Rounds
// draw different workloads so a run averages over several sender sequences
// (the cluster's per-shard queues drift apart by a random walk of them).
std::uint64_t round_seed(std::uint64_t seed, int round);

// The SmallBank accounts `spec`'s genesis creates, from a chain that is built
// but never started (for the ledger, which runs before any deployment).
std::vector<std::string> genesis_accounts(const WorkloadSpec& spec);

inline constexpr std::uint64_t kTraceEveryN = 16;

struct RoundOptions {
  std::uint64_t seed = 1;
  double seconds = 3.0;  // open-loop schedule length
  bool traced = false;  // lifecycle tracer on every kTraceEveryN-th tx, probes counting
  // Set up, time it, tear down; no run (extra set-up samples).
  bool setup_only = false;
};

struct RoundResult {
  std::uint64_t workload_size = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;  // invalid + conflict receipts
  std::uint64_t errors = 0;  // rejected + send failures + unmatched
  double setup_s = 0.0;
  double run_s = 0.0;
  double committed_tps = 0.0;
  double cpu_us_per_tx = 0.0;
  double abort_ratio = 0.0;
  double peak_rss_mb = 0.0;  // set-up and run, after returning earlier rounds' heap
  double error_ratio = 0.0;
  std::vector<double> latency_us;  // committed txs, due-time or send-stamp
  std::vector<std::string> violations;
  // Traced rounds only: the per-layer metrics of the run.
  std::vector<Metric> layers;
};

RoundResult run_round(const WorkloadSpec& spec, const RoundOptions& options);

// Child-process entry point of the remote SUT: deploys `spec`'s chain over
// TCP, writes "ports ..." and the account list to stdout, serves until
// stdin closes. Returns the process exit code.
int serve_sut(const std::string& workload_name);

}  // namespace hammer::bench
