// Saturation search bench — the capacity-planning grid (DESIGN.md §14).
//
// For each (chain, fault) cell, a core::SaturationSearch ramps a rate-paced
// smallbank driver against a freshly deployed SUT until the latency knee
// (p99 > 5x the base-rate p99) or a throughput collapse (achieved/offered
// under 75% relative, or committed under 70% of target absolute), and
// reports the max sustainable TPS. Fault cells rerun the same seeded search
// under resource contention:
//
//   cpu_burn    — FaultPlan-driven spin threads oversubscribing every core
//                 on the box (client and SUT share it, like the paper's
//                 testbed), so the whole pipeline is starved;
//   sched_delay — seeded scheduler-delay injection on the chain's submit
//                 path (each affected submit loses a multi-ms slice).
//
// Expected shape: every cell converges to a reproducible grid knee, and the
// cpu_burn knee lands strictly below the fault-free knee for the same chain
// (enforced — this bench exits nonzero otherwise).
//
// Artifact: bench_results/saturation.csv
#include <algorithm>
#include <thread>

#include "bench_util.hpp"
#include "core/saturation.hpp"
#include "report/saturation_grid.hpp"

using namespace hammer;

namespace {

struct FaultCell {
  std::string name;
  fault::FaultPlan plan;
};

core::Deployment deploy_cell(const std::string& kind, const fault::FaultPlan& plan) {
  json::Value spec = bench::chain_spec(kind);
  spec.as_object()["name"] = "sut";
  if (plan.enabled() || plan.has_resource_faults()) {
    spec.as_object()["faults"] = plan.to_json();
  }
  json::Object plan_doc;
  plan_doc["chains"] = json::Value(json::Array{std::move(spec)});
  return core::Deployment::deploy(json::Value(std::move(plan_doc)),
                                  util::SteadyClock::shared());
}

}  // namespace

int main() {
  const bool full = bench::full_scale();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());

  std::vector<FaultCell> cells;
  cells.push_back({"none", {}});
  {
    FaultCell cell{"cpu_burn", {}};
    cell.plan.seed = 210;
    // Oversubscribe every core: the burn threads contend with the driver's
    // sign/submit path and the chain's block production alike.
    cell.plan.cpu_burn_threads = hw * 4;
    cell.plan.cpu_burn_duty = 1.0;
    cells.push_back(cell);
  }
  {
    FaultCell cell{"sched_delay", {}};
    cell.plan.seed = 211;
    cell.plan.sched_delay_p = 0.5;
    cell.plan.sched_delay_us = 4000;
    cells.push_back(cell);
  }

  report::SaturationGrid grid;
  std::printf("== Saturation search: rate-paced ramp per (chain, fault) cell ==\n");
  for (const std::string& kind : {std::string("meepo"), std::string("neuchain")}) {
    for (const FaultCell& cell : cells) {
      core::Deployment deployment = deploy_cell(kind, cell.plan);
      auto& sut = deployment.at("sut");

      core::SaturationOptions options;
      options.start_rate = 250.0;
      options.growth = 2.0;
      options.max_rate = full ? 16000.0 : 8000.0;
      options.knee_factor = 5.0;
      // The achieved rate is committed/envelope, and the envelope carries a
      // roughly constant commit+detection tail (~0.5 s here) after the last
      // paced send. Probes are constant-duration (txs scale with rate), so a
      // healthy cell sits near achieved/offered ~ 0.83 at every rate; 0.75
      // stays clear of that while a real ceiling (achieved pinned at
      // capacity under a growing offered rate) still collapses through it.
      options.sustain_fraction = 0.75;
      // The absolute floor is what lets cpu_burn move the knee: burning the
      // box drags offered and achieved down together, so the relative
      // criteria stay green while the cell delivers far under target.
      options.deliver_fraction = 0.7;
      options.seed = 42;

      core::SaturationSearch search(options);
      core::SaturationResult result = search.run([&](double rate, std::uint64_t seed) {
        // ~2 seconds of offered load per probe, bounded so the extremes of
        // the grid stay affordable.
        auto txs = static_cast<std::size_t>(std::clamp(2.0 * rate, 600.0, 8000.0));
        core::DriverOptions driver_options;
        driver_options.worker_threads = 2;
        driver_options.submit_batch_size = 16;
        driver_options.target_rate = rate;
        // A small burst keeps the offered-rate window honest: a 64-token
        // prefix released at t0 would read as ~27% over target on the
        // shortest probes and trip the sustain criterion spuriously.
        driver_options.rate_burst = 8.0;
        core::HammerDriver driver(
            core::SutCluster::single(sut.make_adapters(driver_options.worker_threads),
                                     sut.make_adapters(1)[0]),
            util::SteadyClock::shared(), driver_options);
        return driver.run(bench::smallbank_workload(sut, txs, seed), nullptr);
      });

      std::printf("  %-8s %-12s knee=%8.1f tps  at_knee=%8.1f  base_p99=%6.2fms  (%zu probes)\n",
                  kind.c_str(), cell.name.c_str(), result.max_sustainable_tps,
                  result.achieved_at_knee, result.base_p99_ms, result.probes.size());
      for (const core::SaturationProbe& probe : result.probes) {
        std::printf("      target %7.0f  offered %7.1f  achieved %7.1f  p99 %8.2fms%s\n",
                    probe.target, probe.offered, probe.achieved, probe.p99_ms,
                    probe.saturated ? "  <- saturated" : "");
      }
      grid.add({kind, "smallbank", cell.name, std::move(result)});
    }
  }

  std::printf("%s", grid.rendered().c_str());
  std::printf("(expected shape: grid knees reproduce exactly per seed; cpu_burn knees land "
              "below the fault-free knee for the same chain)\n");
  bench::save_csv(grid.to_csv(), "saturation.csv");

  bool ok = true;
  for (const std::string& kind : {std::string("meepo"), std::string("neuchain")}) {
    double knee_none = grid.knee(kind, "smallbank", "none");
    double knee_burn = grid.knee(kind, "smallbank", "cpu_burn");
    if (knee_burn >= knee_none) {
      std::printf("FAIL: %s cpu_burn knee %.1f did not drop below fault-free knee %.1f\n",
                  kind.c_str(), knee_burn, knee_none);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
