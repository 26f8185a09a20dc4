#include "workloads.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "alloc_hook.hpp"
#include "chain/factory.hpp"
#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "probes.hpp"
#include "rpc/tcp.hpp"
#include "util/errors.hpp"
#include "workload/workload_file.hpp"

namespace hammer::bench {

namespace {

constexpr std::chrono::milliseconds kPollInterval{25};
// Submit workers, in total: both on the one in-process target, or one per
// remote target.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kReceiptsChunk = 4000;

json::Value neuchain_spec(bool verify) {
  return json::object({{"kind", "neuchain"},
                       {"name", "neuchain-sut"},
                       {"block_interval_ms", 50},
                       // Above anything one epoch sees even on peak, so the
                       // block cap never becomes the bottleneck.
                       {"max_block_txs", 20000},
                       {"commit_cost_us", 0},
                       {"verify_signatures", verify},
                       {"smallbank_accounts_per_shard", 5000},
                       {"initial_checking", 1000000},
                       {"initial_savings", 1000000}});
}

json::Value meepo_spec() {
  return json::object({{"kind", "meepo"},
                       {"name", "meepo-sut"},
                       {"num_shards", 2},
                       {"block_interval_ms", 80},
                       {"max_block_txs", 300},
                       {"commit_cost_us", 300},
                       {"transport", "tcp"},
                       {"endpoints", 2},
                       {"rpc_workers", 2},
                       {"smallbank_accounts_per_shard", 5000},
                       {"initial_checking", 1000000},
                       {"initial_savings", 1000000}});
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

// Starts a fresh peak-RSS window: returns freed heap to the system, then
// resets the kernel's high-water mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// VmHWM in MB: the peak RSS since the last reset_peak_rss().
double peak_rss_mb() {
  double kb = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

// On-CPU ns of every live thread of this process except the caller, by
// thread id (first field of /proc/self/task/<tid>/schedstat).
std::map<std::string, std::int64_t> other_threads_cpu_ns() {
  std::map<std::string, std::int64_t> out;
  const std::string self = std::to_string(gettid());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const std::string tid = entry.path().filename().string();
    if (tid == self) continue;
    std::ifstream in(entry.path() / "schedstat");
    std::int64_t ns = 0;
    if (in >> ns) out[tid] = ns;
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::int64_t to_us(util::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch()).count();
}

// The open-loop schedule length in 100 ms slices (at least one).
std::int64_t slices(double seconds) {
  return std::max<std::int64_t>(1, std::llround(seconds * 10.0));
}

void append(std::vector<std::string>& into, std::vector<std::string> more) {
  for (std::string& m : more) into.push_back(std::move(m));
}

// The remote SUT: this binary re-executed with --serve-sut in a forked
// child. Stopping closes the child's stdin, which it takes as the signal to
// tear down; the child's rusage comes back through wait4.
class SutProcess {
 public:
  explicit SutProcess(const std::string& workload_name) {
    int to_child[2];
    int from_child[2];
    HAMMER_CHECK(pipe2(to_child, O_CLOEXEC) == 0);
    HAMMER_CHECK(pipe2(from_child, O_CLOEXEC) == 0);
    pid_ = fork();
    HAMMER_CHECK_MSG(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      execl("/proc/self/exe", "hammerbench", "--serve-sut", workload_name.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    out_ = fdopen(from_child[0], "r");
    HAMMER_CHECK(out_ != nullptr);
    std::string line = read_line();
    HAMMER_CHECK_MSG(line.rfind("ports ", 0) == 0, "remote SUT did not start: '" + line + "'");
    const char* p = line.c_str() + 6;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long port = std::strtoul(p, &end, 10);
      if (end == p) break;
      ports_.push_back(static_cast<std::uint16_t>(port));
      p = end;
    }
    line = read_line();
    std::size_t accounts = 0;
    HAMMER_CHECK_MSG(std::sscanf(line.c_str(), "accounts %zu", &accounts) == 1,
                     "remote SUT sent no account list");
    accounts_.reserve(accounts);
    for (std::size_t i = 0; i < accounts; ++i) accounts_.push_back(read_line());
  }

  ~SutProcess() { stop(); }
  SutProcess(const SutProcess&) = delete;
  SutProcess& operator=(const SutProcess&) = delete;

  const std::vector<std::uint16_t>& ports() const { return ports_; }
  const std::vector<std::string>& accounts() const { return accounts_; }

  // Closes the child's stdin and reaps it; returns its CPU seconds. A child
  // that has not exited 10 s later is killed.
  double stop() {
    if (pid_ <= 0) return cpu_s_;
    if (stdin_fd_ >= 0) close(stdin_fd_);
    stdin_fd_ = -1;
    rusage ru{};
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      const pid_t done = wait4(pid_, &status, WNOHANG, &ru);
      if (done == pid_ || done < 0) break;
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (out_ != nullptr) fclose(out_);
    out_ = nullptr;
    cpu_s_ = cpu_seconds(ru);
    return cpu_s_;
  }

 private:
  std::string read_line() {
    std::string line;
    int c;
    while ((c = std::fgetc(out_)) != EOF && c != '\n') line.push_back(static_cast<char>(c));
    if (c == EOF && line.empty()) throw TransportError("remote SUT closed its output");
    return line;
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  FILE* out_ = nullptr;
  double cpu_s_ = 0.0;
  std::vector<std::uint16_t> ports_;
  std::vector<std::string> accounts_;
};

std::shared_ptr<rpc::Channel> counted(std::shared_ptr<rpc::Channel> channel,
                                      const std::shared_ptr<ChannelStats>& stats) {
  if (!stats) return channel;
  return std::make_shared<CountingChannel>(std::move(channel), stats);
}

// In-process SUT: worker adapters and a poll adapter, each on its own
// channel, as one cluster target.
std::shared_ptr<core::SutCluster> local_cluster(const core::DeployedChain& sut,
                                                std::size_t workers,
                                                const std::shared_ptr<ChannelStats>& stats) {
  std::vector<std::shared_ptr<adapters::ChainAdapter>> worker_adapters;
  for (std::size_t i = 0; i < workers; ++i) {
    worker_adapters.push_back(adapters::make_adapter(counted(sut.connect(), stats)));
  }
  auto poll = adapters::make_adapter(counted(sut.connect(), stats));
  return core::SutCluster::single(std::move(worker_adapters), std::move(poll));
}

// The traced flavour of make_remote_cluster(endpoints, 1, 1, config): the
// same shape, with every channel wrapped in a CountingChannel.
std::shared_ptr<core::SutCluster> counted_remote_cluster(
    const std::vector<core::RemoteEndpoint>& endpoints, const rpc::ClientConfig& config,
    const std::shared_ptr<ChannelStats>& stats) {
  std::vector<std::unique_ptr<core::SutTarget>> targets;
  std::uint32_t shards = 1;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    rpc::ClientConfig target_config = config;
    target_config.target_index = i;
    auto dial = [&] {
      return counted(std::make_shared<rpc::TcpChannel>(endpoints[i].host, endpoints[i].port,
                                                       target_config),
                     stats);
    };
    std::vector<std::shared_ptr<adapters::ChainAdapter>> workers{
        std::make_shared<adapters::ChainAdapter>(dial(), target_config)};
    auto poll = std::make_shared<adapters::ChainAdapter>(dial(), target_config);
    if (i == 0) shards = poll->info().shards;
    std::vector<std::uint32_t> owned;
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (s % endpoints.size() == i) owned.push_back(s);
    }
    targets.push_back(std::make_unique<core::SutTarget>(i, std::move(workers), std::move(poll),
                                                        std::move(owned)));
  }
  return std::make_shared<core::SutCluster>(std::move(targets));
}

// Asks the SUT for every record's receipt, in chunks.
std::vector<std::optional<adapters::ChainAdapter::ReceiptInfo>> fetch_receipts(
    adapters::ChainAdapter& adapter, const std::vector<core::TxRecord>& records) {
  std::vector<std::optional<adapters::ChainAdapter::ReceiptInfo>> out;
  out.reserve(records.size());
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < records.size(); i += kReceiptsChunk) {
    ids.clear();
    const std::size_t end = std::min(records.size(), i + kReceiptsChunk);
    for (std::size_t j = i; j < end; ++j) ids.push_back(records[j].tx_id);
    for (auto& r : adapter.receipts(ids)) out.push_back(std::move(r));
  }
  return out;
}

// mean_ms of stages[section][stage] (section "" = top level); 0 when absent.
double stage_mean_ms(const json::Value& stages, const std::string& section,
                     const std::string& stage) {
  if (!stages.is_object()) return 0.0;
  const json::Value* root = &stages;
  if (!section.empty()) {
    if (!stages.contains(section)) return 0.0;
    root = &stages.at(section);
  }
  if (!root->is_object() || !root->contains(stage)) return 0.0;
  return root->at(stage).get_double("mean_ms", 0.0);
}

}  // namespace

std::size_t round_size(const WorkloadSpec& spec, double seconds) {
  if (spec.rate <= 0.0) return spec.closed_loop_txs;
  return static_cast<std::size_t>(std::llround(spec.rate * static_cast<double>(slices(seconds)) /
                                               10.0));
}

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "replay") {
    spec.chain = neuchain_spec(/*verify=*/true);
    spec.rate = 6000.0;
    spec.metrics_pipeline = true;
  } else if (name == "peak") {
    spec.chain = neuchain_spec(/*verify=*/false);
    spec.closed_loop_txs = 100000;
    spec.submit_batch_size = 16;
  } else if (name == "cluster") {
    spec.chain = meepo_spec();
    spec.remote = true;
    spec.rate = 1500.0;
    spec.task_shards = 2;
    spec.shard_routing = true;
  } else {
    throw ParseError("unknown workload '" + name + "' (replay, peak, cluster)");
  }
  return spec;
}

workload::WorkloadProfile workload_profile(std::uint64_t seed) {
  workload::WorkloadProfile profile;  // SmallBank, the paper's default mix
  profile.seed = seed;
  return profile;
}

std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(round);
}

std::vector<std::string> genesis_accounts(const WorkloadSpec& spec) {
  std::shared_ptr<chain::Blockchain> chain =
      chain::make_chain(spec.chain, util::SteadyClock::shared());
  return chain::genesis_smallbank_accounts(
      *chain, static_cast<std::size_t>(spec.chain.get_int("smallbank_accounts_per_shard", 0)),
      spec.chain.get_int("initial_checking", 0), spec.chain.get_int("initial_savings", 0));
}

RoundResult run_round(const WorkloadSpec& spec, const RoundOptions& options) {
  RoundResult out;
  reset_peak_rss();
  const auto setup_begin = std::chrono::steady_clock::now();
  const std::string chain_name = spec.chain.get_string("name", "");

  // --- set up: deploy, genesis, generate, build the cluster and driver ---
  std::optional<core::Deployment> deployment;
  std::unique_ptr<SutProcess> remote;
  std::vector<std::string> accounts;
  if (spec.remote) {
    remote = std::make_unique<SutProcess>(spec.name);
    accounts = remote->accounts();
  } else {
    deployment.emplace(core::Deployment::deploy(
        json::object({{"chains", json::array({spec.chain})}}), util::SteadyClock::shared()));
    accounts = deployment->at(chain_name).smallbank_accounts;
  }

  std::optional<workload::ControlSequence> schedule;
  std::size_t count = spec.closed_loop_txs;
  if (spec.rate > 0.0) {
    // 100 ms slices, so ordinal i is due exactly i / rate after the start.
    schedule = workload::ControlSequence::constant(
        spec.rate, std::chrono::milliseconds(100) * slices(options.seconds),
        std::chrono::milliseconds(100));
    count = round_size(spec, options.seconds);
  }
  workload::WorkloadFile wf =
      workload::generate_workload(workload_profile(options.seed), accounts, count);
  out.workload_size = wf.transactions.size();

  std::shared_ptr<ChannelStats> stats =
      options.traced ? std::make_shared<ChannelStats>() : nullptr;
  std::shared_ptr<core::SutCluster> cluster;
  if (spec.remote) {
    std::vector<core::RemoteEndpoint> endpoints;
    for (std::uint16_t port : remote->ports()) endpoints.push_back({"127.0.0.1", port});
    rpc::ClientConfig config;  // binary codec preferred
    cluster = options.traced ? counted_remote_cluster(endpoints, config, stats)
                             : core::make_remote_cluster(endpoints, 1, 1, config);
  } else {
    cluster = local_cluster(deployment->at(chain_name), kWorkers, stats);
  }

  core::DriverOptions driver_options;
  driver_options.worker_threads = kWorkers;
  driver_options.submit_batch_size = spec.submit_batch_size;
  driver_options.poll_interval = kPollInterval;
  driver_options.task_processor.shards = spec.task_shards;
  if (spec.shard_routing) driver_options.routing = core::RoutingKind::kShardAffine;
  if (options.traced) driver_options.trace_every_n = kTraceEveryN;
  if (spec.metrics_pipeline) {
    core::MetricsOptions metrics_options;
    metrics_options.write_behind = true;
    driver_options.metrics = std::make_shared<core::MetricsPipeline>(
        std::make_shared<kvstore::KvStore>(util::SteadyClock::shared()),
        std::make_shared<minisql::Database>(), metrics_options);
  }
  auto clock = std::make_shared<PacingClock>(util::SteadyClock::shared(), kPollInterval);
  auto driver = std::make_unique<core::HammerDriver>(cluster, clock, driver_options);
  out.setup_s = seconds_since(setup_begin);
  if (options.setup_only) return out;

  // --- run ---
  // In process, the threads alive around the run besides this one are the
  // SUT's own (the driver's are started and joined inside run()).
  std::map<std::string, std::int64_t> sut_threads_before;
  if (options.traced && !spec.remote) sut_threads_before = other_threads_cpu_ns();
  const AllocCount allocs_before = process_allocs();
  if (options.traced) set_process_counting(true);
  const double cpu_before = process_cpu_seconds();
  const auto run_begin = std::chrono::steady_clock::now();
  core::RunResult result = driver->run(wf, schedule ? &*schedule : nullptr);
  out.run_s = seconds_since(run_begin);
  const double cpu_s = process_cpu_seconds() - cpu_before;
  set_process_counting(false);
  const AllocCount run_allocs = process_allocs() - allocs_before;
  out.peak_rss_mb = peak_rss_mb();
  std::int64_t sut_threads_ns = 0;
  if (options.traced && !spec.remote) {
    for (const auto& [tid, ns] : other_threads_cpu_ns()) {
      auto it = sut_threads_before.find(tid);
      if (it != sut_threads_before.end()) sut_threads_ns += ns - it->second;
    }
  }

  // --- measure ---
  const std::vector<core::TxRecord> records = driver->task_processor()->snapshot();
  out.submitted = result.submitted;
  out.committed = result.committed;
  out.aborted = receipt_failures(result);
  out.errors = errors(result);
  out.committed_tps = result.tps;
  out.cpu_us_per_tx =
      result.committed == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(result.committed);
  out.abort_ratio = abort_ratio(result);
  out.error_ratio = error_ratio(result);
  std::optional<std::int64_t> start_us;
  if (schedule) {
    if (auto start = clock->schedule_start()) start_us = to_us(*start);
    if (!start_us) out.violations.push_back("paced run recorded no schedule start");
  }
  out.latency_us = start_us ? due_time_latencies_us(records, *start_us, spec.rate)
                            : send_latencies_us(records);

  // --- check ---
  append(out.violations, check_conservation(result, out.workload_size));
  if (out.errors != 0) {
    out.violations.push_back("error_ratio: " + std::to_string(out.errors) +
                             " txs rejected, written off or unmatched");
  }
  adapters::ChainAdapter& poll = *cluster->target(0).poll_adapter();
  append(out.violations, check_receipts(records, fetch_receipts(poll, records)));
  if (spec.metrics_pipeline) {
    const auto completed = static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(), [](const auto& r) { return r.completed; }));
    const std::size_t rows = driver_options.metrics->query_latencies().rows.size();
    (void)driver_options.metrics->query_tps();
    if (rows != completed) {
      out.violations.push_back("table2: " + std::to_string(rows) + " latency rows for " +
                               std::to_string(completed) + " completed records");
    }
  }
  if (spec.remote) {
    const std::int64_t misrouted = poll.stats().get_int("misrouted", -1);
    if (misrouted != 0) {
      out.violations.push_back("cluster: chain.stats misrouted = " + std::to_string(misrouted));
    }
    append(out.violations, check_close("cluster: committed_tps vs rate x (1 - abort_ratio)",
                                       out.committed_tps, spec.rate * (1.0 - out.abort_ratio),
                                       0.10));
  }

  // --- traced: per-layer metrics of the run ---
  if (options.traced) {
    auto add = [&out](const std::string& name, double value, const std::string& unit) {
      out.layers.push_back(Metric{name, value, unit});
    };
    const double submitted = std::max<double>(1.0, static_cast<double>(result.submitted));
    for (const char* stage : {"sign", "queue", "submit", "include", "detect"}) {
      add(std::string("stage.") + stage + "_ms", stage_mean_ms(result.stages, "", stage), "ms");
    }
    for (const char* stage : {"net_send", "server_queue", "net_recv"}) {
      add(std::string("remote.") + stage + "_ms", stage_mean_ms(result.stages, "remote", stage),
          "ms");
    }
    const MethodStats submit = stats->method("chain.submit");
    const MethodStats height = stats->method("chain.height");
    const MethodStats block = stats->method("chain.block");
    add("rpc.submit_calls_per_tx", static_cast<double>(submit.frames) / submitted, "count");
    add("rpc.submit_busy_us_per_tx", static_cast<double>(submit.busy_ns) / 1e3 / submitted, "us");
    add("rpc.poll_calls_per_s", static_cast<double>(height.frames + block.frames) / out.run_s,
        "1/s");
    add("driver.batch_txs_mean",
        submit.frames == 0
            ? 0.0
            : static_cast<double>(submit.entries) / static_cast<double>(submit.frames),
        "count");
    add("chain.block_txs_mean",
        stats->blocks_with_txs() == 0 ? 0.0
                                      : static_cast<double>(stats->block_txs()) /
                                            static_cast<double>(stats->blocks_with_txs()),
        "count");
    const PacingClock::Waits waits = clock->waits();
    add("clock.pace_wait_ms_per_s", static_cast<double>(waits.pace_wait_ns) / 1e6 / out.run_s,
        "ms/s");
    double lag_p99_ms = 0.0;
    if (start_us) {
      std::vector<double> lags = send_lags_us(records, *start_us, spec.rate);
      if (!lags.empty()) lag_p99_ms = percentile(lags, 99.0) / 1000.0;
    }
    add("pace.send_lag_p99_ms", lag_p99_ms, "ms");
    double share_max = 0.0;
    if (result.targets.is_array()) {
      for (const json::Value& t : result.targets.as_array()) {
        share_max =
            std::max(share_max, static_cast<double>(t.get_int("submitted", 0)) / submitted);
      }
    }
    add("route.target_share_max", share_max, "ratio");
    add("process.allocs_per_tx", static_cast<double>(run_allocs.allocs) / submitted, "count");
    add("process.alloc_bytes_per_tx", static_cast<double>(run_allocs.bytes) / submitted, "B");
  }

  // --- tear down: client side first, so the SUT never sees live callers ---
  driver.reset();
  cluster.reset();
  if (remote) {
    const double sut_cpu_s = remote->stop();
    if (options.traced) {
      out.layers.push_back(Metric{
          "sut.cpu_us_per_tx",
          result.committed == 0 ? 0.0 : sut_cpu_s * 1e6 / static_cast<double>(result.committed),
          "us"});
    }
  } else if (options.traced) {
    // The SUT's own threads only: chain.submit (and so verify) runs on the
    // submitting worker and is charged to the driver.
    out.layers.push_back(Metric{"sut.cpu_us_per_tx",
                                result.committed == 0
                                    ? 0.0
                                    : static_cast<double>(sut_threads_ns) / 1e3 /
                                          static_cast<double>(result.committed),
                                "us"});
  }
  return out;
}

int serve_sut(const std::string& workload_name) {
  const WorkloadSpec spec = workload_spec(workload_name);
  core::Deployment deployment = core::Deployment::deploy(
      json::object({{"chains", json::array({spec.chain})}}), util::SteadyClock::shared());
  core::DeployedChain& sut = deployment.at(spec.chain.get_string("name", ""));
  std::string header = "ports";
  for (std::uint16_t port : sut.tcp_ports()) header += " " + std::to_string(port);
  std::printf("%s\naccounts %zu\n", header.c_str(), sut.smallbank_accounts.size());
  for (const std::string& account : sut.smallbank_accounts) std::printf("%s\n", account.c_str());
  std::fflush(stdout);
  char buf[256];
  while (read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  return 0;
}

}  // namespace hammer::bench
