// Sharding, dirty-set and TTL-eviction behaviour of the kvstore — including
// the concurrent write/read/TTL stress that the CI thread-sanitizer job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "kvstore/kvstore.hpp"

namespace hammer::kvstore {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

class ShardedKvStoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<util::ManualClock> clock_ = std::make_shared<util::ManualClock>();
  KvStore store_{clock_, KvStore::Options{.num_shards = 8}};
};

TEST_F(ShardedKvStoreTest, ShardCountHonored) {
  EXPECT_EQ(store_.shard_count(), 8u);
  KvStore one(clock_, KvStore::Options{.num_shards = 1});
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST_F(ShardedKvStoreTest, KeysVisibleAcrossAllShards) {
  for (int i = 0; i < 100; ++i) {
    store_.hset_many("key-" + std::to_string(i), Fields{{"f", std::to_string(i)}});
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(store_.hgetall("key-" + std::to_string(i)).at("f"), std::to_string(i));
  }
}

TEST_F(ShardedKvStoreTest, HsetManySetsAllFieldsUnderOneCall) {
  Fields fields = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  KvStore::HsetManyResult result = store_.hset_many("h", fields);
  EXPECT_EQ(result.created, 3u);
  EXPECT_FALSE(result.dirty_marked);
  EXPECT_EQ(store_.hgetall("h").at("b"), "2");
  // Re-assigning existing fields creates nothing new.
  result = store_.hset_many("h", fields);
  EXPECT_EQ(result.created, 0u);
}

TEST_F(ShardedKvStoreTest, MarkDirtyDedupsAndDrains) {
  store_.hset_many("h1", Fields{{"f", "1"}}, /*mark_dirty=*/true);
  store_.hset_many("h2", Fields{{"f", "2"}}, /*mark_dirty=*/true);
  // Marking the same key again does not grow the dirty set.
  store_.hset_many("h1", Fields{{"f", "1b"}}, /*mark_dirty=*/true);
  EXPECT_EQ(store_.dirty_count(), 2u);

  std::map<std::string, std::string> drained;
  EXPECT_EQ(store_.drain_dirty([&](const std::string& key, const Hash& fields) {
    drained[key] = fields.at("f");
  }), 2u);
  EXPECT_EQ(store_.dirty_count(), 0u);
  // Drained keys are evicted from the cache, and the latest value won.
  EXPECT_EQ(drained.at("h1"), "1b");
  EXPECT_EQ(drained.at("h2"), "2");
  EXPECT_FALSE(store_.exists("h1"));
  EXPECT_FALSE(store_.exists("h2"));
}

TEST_F(ShardedKvStoreTest, DirtyKeyDeletedBeforeDrainIsSkipped) {
  store_.hset_many("h1", Fields{{"f", "1"}}, /*mark_dirty=*/true);
  // A later write re-arms a TTL on the dirty key, and the sweep deletes it.
  store_.hset_many("h1", Fields{{"g", "2"}}, false, std::chrono::seconds(1));
  clock_->advance(std::chrono::seconds(2));
  EXPECT_EQ(store_.evict_expired(), 1u);
  std::size_t drained = store_.drain_dirty(
      [](const std::string&, const Hash&) { FAIL() << "deleted key must not drain"; });
  EXPECT_EQ(drained, 0u);
  EXPECT_EQ(store_.dirty_count(), 0u);
}

TEST_F(ShardedKvStoreTest, DirtyCapacityDropsOverflow) {
  KvStore small(clock_, KvStore::Options{.num_shards = 1, .dirty_capacity_per_shard = 2});
  EXPECT_TRUE(small.hset_many("a", Fields{{"f", "1"}}, true).dirty_marked);
  EXPECT_TRUE(small.hset_many("b", Fields{{"f", "2"}}, true).dirty_marked);
  KvStore::HsetManyResult overflow = small.hset_many("c", Fields{{"f", "3"}}, true);
  EXPECT_FALSE(overflow.dirty_marked);
  EXPECT_TRUE(overflow.dirty_dropped);
  EXPECT_EQ(small.dirty_count(), 2u);
  // The value itself is still cached — only the drain mark was refused.
  EXPECT_EQ(small.hgetall("c").at("f"), "3");
}

TEST_F(ShardedKvStoreTest, EvictExpiredSweepsEveryShard) {
  for (int i = 0; i < 20; ++i) {
    store_.hset_many("ttl-" + std::to_string(i), Fields{{"f", "x"}}, false,
                     std::chrono::seconds(5));
  }
  for (int i = 0; i < 20; ++i) store_.hset_many("keep-" + std::to_string(i), Fields{{"f", "y"}});
  EXPECT_EQ(store_.evict_expired(), 0u);
  clock_->advance(std::chrono::seconds(6));
  EXPECT_EQ(store_.evict_expired(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(store_.exists("ttl-" + std::to_string(i)));
    EXPECT_TRUE(store_.exists("keep-" + std::to_string(i)));
  }
}

TEST_F(ShardedKvStoreTest, MarkDirtyClearsPendingTtl) {
  // An incomplete record cached with a TTL, then completed and marked
  // dirty, must not age out before the committer drains it.
  store_.hset_many("h", Fields{{"start", "1"}}, false, std::chrono::seconds(5));
  store_.hset_many("h", Fields{{"end", "2"}}, /*mark_dirty=*/true);
  clock_->advance(std::chrono::seconds(10));
  EXPECT_EQ(store_.evict_expired(), 0u);
  std::size_t drained = store_.drain_dirty([](const std::string& key, const Hash& fields) {
    EXPECT_EQ(key, "h");
    EXPECT_EQ(fields.at("end"), "2");
  });
  EXPECT_EQ(drained, 1u);
}

TEST(KvStoreOpCostTest, OpCostChargesModeledTime) {
  // Needs a real clock: the modeled cost is slept while the shard lock is
  // held (a ManualClock would park until someone advances it).
  auto clock = util::SteadyClock::shared();
  KvStore costed(clock, KvStore::Options{.num_shards = 2, .op_cost_us = 5000});
  std::int64_t before = clock->now_us();
  costed.hset_many("a", Fields{{"f", "1"}});
  costed.hset_many("b", Fields{{"f", "1"}});
  EXPECT_GE(clock->now_us() - before, 10000);  // two ops at 5ms each
}

// The TSAN target: producers hammer hset_many (dirty marks and TTLs) and
// reads across shards while a drainer loops drain_dirty + evict_expired.
// Run under -DHAMMER_SANITIZE=thread in CI.
TEST(ShardedKvStoreConcurrencyTest, ConcurrentGetPutTtlAndDrain) {
  auto clock = util::SteadyClock::shared();
  KvStore store(clock, KvStore::Options{.num_shards = 8});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> drained_total{0};

  std::thread drainer([&] {
    while (!stop.load()) {
      drained_total.fetch_add(store.drain_dirty([](const std::string&, const Hash&) {}));
      store.evict_expired();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k-" + std::to_string(t) + "-" + std::to_string(i);
        store.hset_many(key, Fields{{"f", std::to_string(i)}}, /*mark_dirty=*/i % 2 == 0,
                        i % 3 == 0 ? std::chrono::microseconds(50) : util::Duration::zero());
        store.hset_many("s-" + std::to_string(t), Fields{{"f", std::to_string(i)}}, false,
                        i % 16 == 0 ? std::chrono::microseconds(10) : util::Duration::zero());
        store.hgetall("s-" + std::to_string((t + 1) % kThreads));
        store.exists(key);
      }
    });
  }
  for (auto& p : producers) p.join();
  stop.store(true);
  drainer.join();
  // Whatever was not drained mid-run is still marked; one final drain must
  // account for every dirty mark that was not deleted/expired.
  drained_total.fetch_add(store.drain_dirty([](const std::string&, const Hash&) {}));
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_GT(drained_total.load(), 0u);
}

}  // namespace
}  // namespace hammer::kvstore
