#include "chain/fabric_sim.hpp"

#include <gtest/gtest.h>

#include "chain_test_util.hpp"
#include "util/errors.hpp"

namespace hammer::chain {
namespace {

using testutil::signed_tx;
using testutil::wait_for_receipt;

ChainConfig fast_config() {
  ChainConfig c;
  c.name = "fabric-test";
  c.block_interval_ms = 20;  // batch timeout
  c.max_block_txs = 50;
  return c;
}

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chain_ = std::make_shared<FabricSim>(fast_config(), util::SteadyClock::shared());
    chain_->with_state([](StateStore& s) {
      s.put("sb:c:alice", "1000");
      s.put("sb:s:alice", "1000");
      s.put("sb:c:bob", "1000");
      s.put("sb:s:bob", "1000");
    });
    chain_->start();
  }
  void TearDown() override { chain_->stop(); }

  std::shared_ptr<FabricSim> chain_;
};

TEST(FabricLifecycleTest, StopRightAfterStartReturns) {
  // stop() must wake an orderer caught between its wait predicate and the
  // wait itself; a lost wakeup here hangs stop() in join(). The race window
  // is narrow, so the cycle repeats.
  FabricSim chain(fast_config(), util::SteadyClock::shared());
  for (int i = 0; i < 50000; ++i) {
    chain.start();
    chain.stop();
  }
}

TEST_F(FabricTest, CommitsEndorsedTransaction) {
  Transaction tx = signed_tx("alice", "smallbank", "deposit_checking",
                             json::object({{"customer", "alice"}, {"amount", 5}}));
  TxReceipt r = wait_for_receipt(*chain_, chain_->submit(tx));
  EXPECT_EQ(r.status, TxStatus::kCommitted);
  EXPECT_EQ(chain_->query(0, "smallbank", "query", json::object({{"customer", "alice"}}))
                .at("checking")
                .as_int(),
            1005);
}

TEST_F(FabricTest, BatchTimeoutSealsPartialBlock) {
  Transaction tx = signed_tx("alice", "smallbank", "deposit_checking",
                             json::object({{"customer", "alice"}, {"amount", 1}}));
  std::string id = chain_->submit(tx);
  // Just one tx; the block must still seal within the batch timeout window.
  TxReceipt r = wait_for_receipt(*chain_, id, std::chrono::seconds(2));
  EXPECT_EQ(r.status, TxStatus::kCommitted);
}

TEST_F(FabricTest, ConflictingEndorsementsProduceMvccFailure) {
  // Endorse two conflicting transactions before either commits: both read
  // alice's checking at the same version, so the second to validate fails.
  Transaction t1 = signed_tx("alice", "smallbank", "deposit_checking",
                             json::object({{"customer", "alice"}, {"amount", 1}}), 1);
  Transaction t2 = signed_tx("alice", "smallbank", "deposit_checking",
                             json::object({{"customer", "alice"}, {"amount", 2}}), 2);
  std::string id1 = chain_->submit(t1);
  std::string id2 = chain_->submit(t2);
  TxReceipt r1 = wait_for_receipt(*chain_, id1);
  TxReceipt r2 = wait_for_receipt(*chain_, id2);
  int committed = (r1.status == TxStatus::kCommitted) + (r2.status == TxStatus::kCommitted);
  int conflicted = (r1.status == TxStatus::kConflict) + (r2.status == TxStatus::kConflict);
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(conflicted, 1);
  EXPECT_GE(chain_->mvcc_conflicts(), 1u);
  // Exactly one deposit applied.
  std::int64_t checking =
      chain_->query(0, "smallbank", "query", json::object({{"customer", "alice"}}))
          .at("checking")
          .as_int();
  EXPECT_TRUE(checking == 1001 || checking == 1002) << checking;
}

TEST_F(FabricTest, NonConflictingTransactionsAllCommit) {
  std::vector<std::string> ids;
  // Different customers: disjoint rw-sets, no MVCC conflicts.
  ids.push_back(chain_->submit(signed_tx(
      "alice", "smallbank", "deposit_checking",
      json::object({{"customer", "alice"}, {"amount", 1}}), 1)));
  ids.push_back(chain_->submit(signed_tx(
      "bob", "smallbank", "deposit_checking",
      json::object({{"customer", "bob"}, {"amount", 1}}), 2)));
  for (const auto& id : ids) {
    EXPECT_EQ(wait_for_receipt(*chain_, id).status, TxStatus::kCommitted);
  }
}

TEST_F(FabricTest, ExecutionFailureIsInvalidNotConflict) {
  Transaction tx = signed_tx("alice", "smallbank", "send_payment",
                             json::object({{"from", "alice"}, {"to", "ghost"}, {"amount", 1}}));
  TxReceipt r = wait_for_receipt(*chain_, chain_->submit(tx));
  EXPECT_EQ(r.status, TxStatus::kInvalid);
}

TEST_F(FabricTest, SubmitAfterStopRejected) {
  chain_->stop();
  Transaction tx = signed_tx("alice", "smallbank", "deposit_checking",
                             json::object({{"customer", "alice"}, {"amount", 1}}));
  EXPECT_THROW(chain_->submit(tx), RejectedError);
}

TEST_F(FabricTest, MaxBlockTxsSplitsLargeBursts) {
  // 120 independent deposits with max 50 per block -> at least 3 blocks.
  chain_->with_state([](StateStore& s) {
    for (int i = 0; i < 120; ++i) s.put("sb:c:user" + std::to_string(i), "10");
  });
  std::vector<std::string> ids;
  for (int i = 0; i < 120; ++i) {
    std::string user = "user" + std::to_string(i);
    ids.push_back(chain_->submit(
        signed_tx(user, "smallbank", "deposit_checking",
                  json::object({{"customer", user}, {"amount", 1}}), 1)));
  }
  for (const auto& id : ids) {
    EXPECT_EQ(wait_for_receipt(*chain_, id).status, TxStatus::kCommitted);
  }
  std::size_t max_block = 0;
  for (std::uint64_t h = 1; h <= chain_->height(0); ++h) {
    max_block = std::max(max_block, chain_->block_at(0, h)->receipts.size());
  }
  EXPECT_LE(max_block, 50u);
  EXPECT_GE(chain_->height(0), 3u);
}

}  // namespace
}  // namespace hammer::chain
