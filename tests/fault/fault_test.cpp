#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "fault/resource.hpp"
#include "util/errors.hpp"
#include "util/random.hpp"

namespace hammer::fault {
namespace {

FaultPlan storm_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.conn_reset_p = 0.3;
  plan.client_latency_p = 0.5;
  plan.submit_reject_p = 0.1;
  plan.block_stall_p = 0.7;
  return plan;
}

TEST(FaultPlanTest, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(plan.probability(static_cast<FaultKind>(k)), 0.0);
  }
}

TEST(FaultPlanTest, JsonRoundTrip) {
  FaultPlan plan = storm_plan(42);
  plan.client_latency_us = 1234;
  plan.block_stall_ms = 77;
  FaultPlan back = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(back.seed, 42u);
  EXPECT_DOUBLE_EQ(back.conn_reset_p, 0.3);
  EXPECT_DOUBLE_EQ(back.client_latency_p, 0.5);
  EXPECT_EQ(back.client_latency_us, 1234);
  EXPECT_DOUBLE_EQ(back.submit_reject_p, 0.1);
  EXPECT_DOUBLE_EQ(back.block_stall_p, 0.7);
  EXPECT_EQ(back.block_stall_ms, 77);
  EXPECT_TRUE(back.enabled());
}

TEST(FaultPlanTest, FromJsonRejectsOutOfRangeProbability) {
  EXPECT_THROW(FaultPlan::from_json(json::object({{"conn_reset_p", 1.5}})), Error);
  EXPECT_THROW(FaultPlan::from_json(json::object({{"submit_reject_p", -0.1}})), Error);
}

TEST(FaultPlanTest, SchedDelayAndResourceFieldsRoundTrip) {
  FaultPlan plan;
  plan.seed = 9;
  plan.sched_delay_p = 0.4;
  plan.sched_delay_us = 3500;
  plan.cpu_burn_threads = 6;
  plan.cpu_burn_duty = 0.75;
  plan.mem_ballast_mb = 32;
  plan.ingress_rps = 1500.0;
  plan.ingress_burst = 128.0;
  FaultPlan back = FaultPlan::from_json(plan.to_json());
  EXPECT_DOUBLE_EQ(back.sched_delay_p, 0.4);
  EXPECT_EQ(back.sched_delay_us, 3500);
  EXPECT_EQ(back.cpu_burn_threads, 6u);
  EXPECT_DOUBLE_EQ(back.cpu_burn_duty, 0.75);
  EXPECT_EQ(back.mem_ballast_mb, 32u);
  EXPECT_DOUBLE_EQ(back.ingress_rps, 1500.0);
  EXPECT_DOUBLE_EQ(back.ingress_burst, 128.0);
  EXPECT_EQ(back.probability(FaultKind::kSchedDelay), 0.4);
}

TEST(FaultPlanTest, HasResourceFaultsSeparatesContentionFromInjection) {
  FaultPlan plan;
  EXPECT_FALSE(plan.has_resource_faults());
  plan.sched_delay_p = 0.5;  // probabilistic injection, not contention
  EXPECT_FALSE(plan.has_resource_faults());
  EXPECT_TRUE(plan.enabled());

  FaultPlan burn;
  burn.cpu_burn_threads = 2;
  EXPECT_TRUE(burn.has_resource_faults());
  FaultPlan ballast;
  ballast.mem_ballast_mb = 16;
  EXPECT_TRUE(ballast.has_resource_faults());
  FaultPlan throttle;
  throttle.ingress_rps = 100.0;
  EXPECT_TRUE(throttle.has_resource_faults());
}

TEST(FaultPlanTest, ResourceFieldValidation) {
  EXPECT_THROW(FaultPlan::from_json(json::object({{"cpu_burn_duty", 1.5}})), Error);
  EXPECT_THROW(FaultPlan::from_json(json::object({{"cpu_burn_duty", -0.1}})), Error);
  EXPECT_THROW(FaultPlan::from_json(json::object({{"ingress_rps", -1.0}})), Error);
  EXPECT_THROW(FaultPlan::from_json(json::object({{"sched_delay_p", 2.0}})), Error);
}

// Each of these was cast to an unsigned field or handed to a sleep without
// a range check: cpu_burn_threads = -1 became 4,294,967,295 burner threads.
TEST(FaultPlanTest, FromJsonRejectsNegativeSizesAndMagnitudes) {
  for (const char* key : {"cpu_burn_threads", "mem_ballast_mb", "client_latency_us",
                          "slow_loris_us", "block_stall_ms", "sched_delay_us"}) {
    EXPECT_THROW(FaultPlan::from_json(json::object({{key, -1}})), ParseError) << key;
    EXPECT_NO_THROW(FaultPlan::from_json(json::object({{key, 0}}))) << key;
  }
  EXPECT_THROW(FaultPlan::from_json(json::object({{"ingress_burst", 0.0}})), ParseError);
  EXPECT_THROW(FaultPlan::from_json(json::object({{"ingress_burst", -1.0}})), ParseError);
}

TEST(FaultPlanTest, PartialJsonKeepsDefaults) {
  FaultPlan plan = FaultPlan::from_json(json::object({{"submit_reject_p", 0.25}}));
  EXPECT_DOUBLE_EQ(plan.submit_reject_p, 0.25);
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_EQ(plan.client_latency_us, 20000);
  EXPECT_DOUBLE_EQ(plan.conn_reset_p, 0.0);
}

constexpr FaultKind kStormKinds[] = {FaultKind::kConnReset, FaultKind::kClientLatency,
                                     FaultKind::kSubmitReject, FaultKind::kBlockStall};

// Asks `kind` for every key in `keys` order; returns the keys that fired.
std::set<std::uint64_t> hits(FaultInjector& injector, FaultKind kind,
                             const std::vector<std::uint64_t>& keys) {
  std::set<std::uint64_t> fired;
  for (std::uint64_t key : keys) {
    if (injector.should(kind, key)) fired.insert(key);
  }
  return fired;
}

std::vector<std::uint64_t> key_range(std::uint64_t n) {
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t i = 0; i < n; ++i) keys[i] = util::derive_seed(3, i);  // tx-like keys
  return keys;
}

// The core determinism contract: a decision is a pure function of
// (seed, kind, key), whatever order the keys are asked in.
TEST(FaultInjectorTest, SameSeedSameTrace) {
  FaultInjector a(storm_plan(7));
  FaultInjector b(storm_plan(7));
  std::vector<std::uint64_t> keys = key_range(500);
  std::vector<std::uint64_t> reversed(keys.rbegin(), keys.rend());
  for (FaultKind kind : kStormKinds) {
    EXPECT_EQ(hits(a, kind, keys), hits(b, kind, reversed)) << to_string(kind);
  }
  EXPECT_EQ(a.counts_json().dump(), b.counts_json().dump());
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(storm_plan(1));
  FaultInjector b(storm_plan(2));
  std::vector<std::uint64_t> keys = key_range(500);
  EXPECT_NE(hits(a, FaultKind::kClientLatency, keys), hits(b, FaultKind::kClientLatency, keys));
}

TEST(FaultInjectorTest, FiresAtMostOncePerKey) {
  FaultInjector injector(storm_plan(5));
  std::vector<std::uint64_t> keys = key_range(300);
  std::set<std::uint64_t> first = hits(injector, FaultKind::kConnReset, keys);
  ASSERT_FALSE(first.empty());
  // Asking again (a resent transaction) never fires a second time.
  EXPECT_TRUE(hits(injector, FaultKind::kConnReset, keys).empty());
  EXPECT_EQ(injector.injected(FaultKind::kConnReset), first.size());

  FaultPlan certain;
  certain.submit_reject_p = 1.0;
  FaultInjector always(certain);
  EXPECT_TRUE(always.should(FaultKind::kSubmitReject, 42));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(always.should(FaultKind::kSubmitReject, 42));
  EXPECT_EQ(always.injected(FaultKind::kSubmitReject), 1u);
}

// A frame is faulted when any of its keys fires, and every key is asked,
// so however the same keys are cut into frames, the same keys fire and a
// frame is faulted exactly when it carries one of them.
TEST(FaultInjectorTest, FrameCutDoesNotChangeHitSet) {
  const std::vector<std::uint64_t> keys = key_range(400);
  util::Pcg32 rng(11);
  std::vector<std::size_t> random_cut;
  for (std::size_t n = 0; n < keys.size();) {
    random_cut.push_back(std::min<std::size_t>(rng.uniform(1, 9), keys.size() - n));
    n += random_cut.back();
  }
  for (FaultKind kind : kStormKinds) {
    FaultInjector singles(storm_plan(21));
    const std::set<std::uint64_t> hit = hits(singles, kind, keys);
    ASSERT_FALSE(hit.empty()) << to_string(kind);
    auto cut_into = [&keys](std::size_t size) {
      return std::vector<std::size_t>((keys.size() + size - 1) / size, size);
    };
    for (const std::vector<std::size_t>& cut : {cut_into(1), cut_into(3), cut_into(4), random_cut}) {
      FaultInjector framed(storm_plan(21));
      std::size_t begin = 0;
      for (std::size_t size : cut) {
        std::size_t end = std::min(begin + size, keys.size());
        std::span<const std::uint64_t> frame(keys.data() + begin, end - begin);
        bool carries_hit = std::any_of(frame.begin(), frame.end(),
                                       [&hit](std::uint64_t k) { return hit.count(k) > 0; });
        EXPECT_EQ(framed.any(kind, frame), carries_hit) << to_string(kind) << " @" << begin;
        begin = end;
      }
      EXPECT_EQ(framed.injected(kind), hit.size()) << to_string(kind);
    }
  }
}

TEST(FaultInjectorTest, HitFractionWithinFourSigma) {
  constexpr double kN = 10000.0;
  constexpr double kP = 0.1;
  const double sigma = std::sqrt(kN * kP * (1.0 - kP));  // 30
  FaultPlan plan;
  plan.seed = 8;
  plan.conn_reset_p = plan.client_latency_p = plan.drop_response_p = plan.slow_loris_p = kP;
  plan.submit_reject_p = plan.endorse_fail_p = plan.block_stall_p = plan.sched_delay_p = kP;
  FaultInjector injector(plan);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    auto kind = static_cast<FaultKind>(k);
    for (std::uint64_t key = 0; key < static_cast<std::uint64_t>(kN); ++key) {
      injector.should(kind, key);
    }
    EXPECT_NEAR(static_cast<double>(injector.injected(kind)), kN * kP, 4.0 * sigma)
        << to_string(kind);
  }
}

TEST(FaultInjectorTest, KindsWithEqualProbabilityHitDifferentSets) {
  FaultPlan plan;
  plan.seed = 9;
  plan.conn_reset_p = 0.3;
  plan.client_latency_p = 0.3;
  FaultInjector injector(plan);
  std::vector<std::uint64_t> keys = key_range(500);
  std::set<std::uint64_t> resets = hits(injector, FaultKind::kConnReset, keys);
  std::set<std::uint64_t> spikes = hits(injector, FaultKind::kClientLatency, keys);
  std::vector<std::uint64_t> only_one;
  std::set_symmetric_difference(resets.begin(), resets.end(), spikes.begin(), spikes.end(),
                                std::back_inserter(only_one));
  // Independent kinds disagree on 2 * 0.3 * 0.7 = 42% of keys (~210).
  EXPECT_GT(only_one.size(), 100u);
}

TEST(FaultInjectorTest, DisabledKindNeverFiresAndNeverDraws) {
  FaultInjector injector(storm_plan(3));  // drop_response_p stays 0
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(injector.should(FaultKind::kDropResponse, key));
  }
  EXPECT_EQ(injector.injected(FaultKind::kDropResponse), 0u);
}

TEST(FaultInjectorTest, CertainKindAlwaysFires) {
  FaultPlan plan;
  plan.endorse_fail_p = 1.0;
  FaultInjector injector(plan);
  for (std::uint64_t key = 0; key < 50; ++key) {
    EXPECT_TRUE(injector.should(FaultKind::kEndorseFail, key));
  }
  EXPECT_EQ(injector.injected(FaultKind::kEndorseFail), 50u);
}

TEST(FaultInjectorTest, CountsJsonListsEveryKindPlusTotal) {
  FaultPlan plan;
  plan.submit_reject_p = 1.0;
  FaultInjector injector(plan);
  injector.should(FaultKind::kSubmitReject, 1);
  injector.should(FaultKind::kSubmitReject, 2);
  injector.should(FaultKind::kSubmitReject, 1);  // already fired: not counted
  json::Value counts = injector.counts_json();
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_TRUE(counts.contains(to_string(static_cast<FaultKind>(k))));
  }
  EXPECT_EQ(counts.at("submit_reject").as_int(), 2);
  EXPECT_EQ(counts.at("conn_reset").as_int(), 0);
  EXPECT_EQ(counts.at("total").as_int(), 2);
}

// Concurrent decisions on disjoint keys from four threads give the serial
// total for any interleaving (TSAN coverage for the fired-key set, too).
TEST(FaultInjectorTest, ConcurrentDrawsPreserveInjectionTotal) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kKeysPerThread = 1000;
  FaultPlan plan;
  plan.conn_reset_p = 0.25;
  plan.seed = 5;
  FaultInjector serial(plan);
  for (std::uint64_t key = 0; key < kThreads * kKeysPerThread; ++key) {
    serial.should(FaultKind::kConnReset, key);
  }
  FaultInjector injector(plan);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector, t] {
      for (std::uint64_t i = 0; i < kKeysPerThread; ++i) {
        injector.should(FaultKind::kConnReset, t * kKeysPerThread + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(injector.injected(FaultKind::kConnReset), serial.injected(FaultKind::kConnReset));
  EXPECT_GT(serial.injected(FaultKind::kConnReset), 0u);
}

TEST(ResourceFaultsTest, StartsAndStopsContentionIdempotently) {
  FaultPlan plan;
  plan.cpu_burn_threads = 2;
  plan.cpu_burn_duty = 0.1;  // mostly sleeping: cheap enough for a unit test
  plan.mem_ballast_mb = 1;
  ResourceFaults faults(plan);
  EXPECT_EQ(faults.burn_threads(), 2u);
  EXPECT_EQ(faults.ballast_bytes(), 1u << 20);
  faults.stop();
  faults.stop();  // second stop is a no-op
  EXPECT_EQ(faults.burn_threads(), 0u);
  EXPECT_EQ(faults.ballast_bytes(), 0u);
}

TEST(IngressThrottleTest, AdmitsBurstThenPaces) {
  auto clock = util::SteadyClock::shared();
  IngressThrottle throttle(1000.0, 8.0, clock);
  EXPECT_DOUBLE_EQ(throttle.rps(), 1000.0);
  // The first burst-full admits immediately...
  for (int i = 0; i < 8; ++i) EXPECT_EQ(throttle.admit(), 0);
  // ...then the bucket is empty and admission must wait ~1ms per request.
  std::int64_t waited_us = 0;
  for (int i = 0; i < 8; ++i) waited_us += throttle.admit();
  EXPECT_GT(waited_us, 0);
  EXPECT_GT(throttle.throttled(), 0u);
}

}  // namespace
}  // namespace hammer::fault
