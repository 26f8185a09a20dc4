#include "kvstore/kvstore.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace hammer::kvstore {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

class KvStoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<util::ManualClock> clock_ = std::make_shared<util::ManualClock>();
  KvStore store_{clock_, 4};
};

TEST_F(KvStoreTest, HashOperations) {
  EXPECT_EQ(store_.hset_many("h", Fields{{"f1", "v1"}}).created, 1u);
  // f1 is overwritten, not new; f2 is new.
  EXPECT_EQ(store_.hset_many("h", Fields{{"f1", "v2"}, {"f2", "x"}}).created, 1u);
  EXPECT_TRUE(store_.exists("h"));
  Hash all = store_.hgetall("h");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("f1"), "v2");
  EXPECT_EQ(all.at("f2"), "x");
  EXPECT_FALSE(store_.exists("nope"));
  EXPECT_TRUE(store_.hgetall("nope").empty());
}

TEST_F(KvStoreTest, ExpiryRemovesKeyAfterTtl) {
  store_.hset_many("k", Fields{{"f", "v"}}, false, std::chrono::milliseconds(100));
  clock_->advance_ms(50);
  EXPECT_TRUE(store_.exists("k"));
  clock_->advance_ms(60);
  EXPECT_FALSE(store_.exists("k"));
  EXPECT_TRUE(store_.hgetall("k").empty());
}

TEST_F(KvStoreTest, ConcurrentWritersDoNotLoseUpdates) {
  auto steady = std::make_shared<util::SteadyClock>();
  KvStore store(steady, 8);
  constexpr int kThreads = 4;
  constexpr int kWrites = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kWrites; ++i) {
        store.hset_many("h", Fields{{std::to_string(t) + "-" + std::to_string(i), "1"}});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.hgetall("h").size(), static_cast<std::size_t>(kThreads * kWrites));
}

}  // namespace
}  // namespace hammer::kvstore
