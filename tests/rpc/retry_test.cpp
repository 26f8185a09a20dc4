#include "rpc/retry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "rpc/jsonrpc.hpp"
#include "util/errors.hpp"
#include "util/random.hpp"

namespace hammer::rpc {
namespace {

ErrorClass classify(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return classify_current_exception();
  }
  ADD_FAILURE() << "thrower did not throw";
  return ErrorClass::kProtocol;
}

TEST(RetryClassifyTest, MapsTheErrorTaxonomy) {
  EXPECT_EQ(classify([] { throw TimeoutError("t"); }), ErrorClass::kTimeout);
  EXPECT_EQ(classify([] { throw TransportError("t"); }), ErrorClass::kTransport);
  EXPECT_EQ(classify([] { throw RejectedError("r"); }), ErrorClass::kRejected);
  EXPECT_EQ(classify([] { throw RpcError(kServerError, "app"); }), ErrorClass::kRejected);
  EXPECT_EQ(classify([] { throw RpcError(kMethodNotFound, "m"); }), ErrorClass::kProtocol);
  EXPECT_EQ(classify([] { throw std::runtime_error("x"); }), ErrorClass::kProtocol);
}

TEST(RetryPolicyTest, DefaultIsSingleAttempt) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(policy.max_attempts, 1u);
}

TEST(RetryPolicyTest, RetryableClassesFollowTheFlags) {
  RetryPolicy policy = RetryPolicy::standard();
  EXPECT_TRUE(policy.enabled());
  EXPECT_TRUE(policy.retries(ErrorClass::kTransport));
  EXPECT_TRUE(policy.retries(ErrorClass::kTimeout));
  EXPECT_FALSE(policy.retries(ErrorClass::kRejected));
  EXPECT_FALSE(policy.retries(ErrorClass::kProtocol));  // never retryable
  policy.on_rejected = true;
  policy.on_timeout = false;
  EXPECT_TRUE(policy.retries(ErrorClass::kRejected));
  EXPECT_FALSE(policy.retries(ErrorClass::kTimeout));
  EXPECT_FALSE(policy.retries(ErrorClass::kProtocol));
}

TEST(RetryPolicyTest, ZeroJitterGivesExactExponentialScheduleClamped) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(10);
  policy.multiplier = 2.0;
  policy.max_backoff = std::chrono::milliseconds(60);
  policy.jitter = 0.0;
  EXPECT_EQ(policy.backoff(1, 0.7).count(), 10000);
  EXPECT_EQ(policy.backoff(2, 0.7).count(), 20000);
  EXPECT_EQ(policy.backoff(3, 0.7).count(), 40000);
  EXPECT_EQ(policy.backoff(4, 0.7).count(), 60000);  // clamped at max_backoff
  EXPECT_EQ(policy.backoff(10, 0.7).count(), 60000);
}

TEST(RetryPolicyTest, JitteredScheduleIsSeedDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(8);
  policy.jitter = 0.5;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    // The draw is util::unit(seed, 0, retry ordinal), as Retryer takes it.
    const double draw = util::unit(99, 0, i);
    auto first = policy.backoff(i, draw);
    EXPECT_EQ(first.count(), policy.backoff(i, util::unit(99, 0, i)).count());
    // Jitter scales by a factor in [1 - jitter, 1]: never above the pure
    // exponential value, never below half of it — over the whole draw range.
    double exact = 8000.0 * std::pow(2.0, i - 1);
    exact = std::min(exact, 500000.0);
    for (double u : {0.0, draw, 0.999999}) {
      EXPECT_LE(policy.backoff(i, u).count(), static_cast<std::int64_t>(exact) + 1);
      EXPECT_GE(policy.backoff(i, u).count(), static_cast<std::int64_t>(exact * 0.5) - 1);
    }
  }
}

TEST(RetryerTest, RetriesTransientFailuresThenSucceeds) {
  RetryPolicy policy = RetryPolicy::standard(4);
  policy.initial_backoff = std::chrono::milliseconds(1);
  Retryer retryer(policy);
  int calls = 0;
  int result = retryer.run([&]() -> int {
    if (++calls < 3) throw TransportError("flaky");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retryer.retry_count(), 2u);
}

TEST(RetryerTest, ExhaustedPolicyRethrows) {
  RetryPolicy policy = RetryPolicy::standard(3);
  policy.initial_backoff = std::chrono::milliseconds(1);
  Retryer retryer(policy);
  int calls = 0;
  EXPECT_THROW(retryer.run([&]() -> int {
    ++calls;
    throw TimeoutError("always");
  }),
               TimeoutError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retryer.retry_count(), 2u);
}

TEST(RetryerTest, NonRetryableClassFailsFast) {
  RetryPolicy policy = RetryPolicy::standard(5);
  Retryer retryer(policy);
  int calls = 0;
  EXPECT_THROW(retryer.run([&]() -> int {
    ++calls;
    throw RejectedError("bad signature");  // on_rejected defaults to false
  }),
               RejectedError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retryer.retry_count(), 0u);
}

TEST(RetryerTest, DefaultPolicyNeverRetries) {
  Retryer retryer(RetryPolicy{});
  int calls = 0;
  EXPECT_THROW(retryer.run([&]() -> int {
    ++calls;
    throw TransportError("down");
  }),
               TransportError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retryer.retry_count(), 0u);
}

}  // namespace
}  // namespace hammer::rpc
