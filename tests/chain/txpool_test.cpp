#include "chain/txpool.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/errors.hpp"

namespace hammer::chain {
namespace {

PooledTx make_tx(int i) {
  Transaction tx;
  tx.contract = "kv";
  tx.op = "put";
  tx.args = json::object({{"key", "k" + std::to_string(i)}, {"value", "v"}});
  tx.sender = "s";
  tx.nonce = static_cast<std::uint64_t>(i);
  return PooledTx{std::move(tx), "id-" + std::to_string(i)};
}

TEST(TxPoolTest, SubmitAndDrainFifo) {
  TxPool pool(10);
  pool.submit(make_tx(1));
  pool.submit(make_tx(2));
  pool.submit(make_tx(3));
  EXPECT_EQ(pool.size(), 3u);
  auto batch = pool.drain(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].tx.nonce, 1u);
  EXPECT_EQ(batch[0].id, "id-1");
  EXPECT_EQ(batch[1].tx.nonce, 2u);
  EXPECT_EQ(batch[1].id, "id-2");
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPoolTest, DrainOnEmptyReturnsEmpty) {
  TxPool pool(10);
  EXPECT_TRUE(pool.drain(5).empty());
}

TEST(TxPoolTest, RejectsWhenFull) {
  TxPool pool(2);
  pool.submit(make_tx(1));
  pool.submit(make_tx(2));
  EXPECT_THROW(pool.submit(make_tx(3)), RejectedError);
  EXPECT_EQ(pool.total_rejected(), 1u);
  EXPECT_EQ(pool.total_submitted(), 2u);
}

TEST(TxPoolTest, AcceptsAgainAfterDrain) {
  TxPool pool(1);
  pool.submit(make_tx(1));
  EXPECT_THROW(pool.submit(make_tx(2)), RejectedError);
  pool.drain(1);
  EXPECT_NO_THROW(pool.submit(make_tx(3)));
}

TEST(TxPoolTest, WaitAndDrainBlocksUntilSubmit) {
  TxPool pool(10);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.submit(make_tx(9));
  });
  auto batch = pool.wait_and_drain(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tx.nonce, 9u);
  EXPECT_EQ(batch[0].id, "id-9");
  producer.join();
}

TEST(TxPoolTest, CloseWakesWaiters) {
  TxPool pool(10);
  std::thread waiter([&] { EXPECT_TRUE(pool.wait_and_drain(10).empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pool.close();
  waiter.join();
  EXPECT_THROW(pool.submit(make_tx(1)), RejectedError);
}

TEST(TxPoolTest, ZeroCapacityRejected) { EXPECT_THROW(TxPool(0), LogicError); }

}  // namespace
}  // namespace hammer::chain
