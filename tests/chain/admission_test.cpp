// SUT admission across the four chain kinds: every submit path verifies the
// signature over the bytes it received and derives the id from those same
// bytes, never from anything the client claims.
#include <gtest/gtest.h>

#include "chain/factory.hpp"
#include "chain_test_util.hpp"
#include "util/errors.hpp"

namespace hammer::chain {
namespace {

using testutil::signed_tx;
using testutil::wait_for_receipt;

// Parameter: the chain kind. Meepo runs 2 shards, the rest 1.
class AdmissionTest : public ::testing::TestWithParam<std::string> {
 protected:
  void deploy(bool verify_signatures) {
    chain_ = make_chain(json::object({{"kind", GetParam()},
                                      {"name", "admission-test"},
                                      {"num_shards", GetParam() == "meepo" ? 2 : 1},
                                      {"block_interval_ms", 10},
                                      {"hash_rate", 2000000},
                                      {"verify_signatures", verify_signatures}}),
                        util::SteadyClock::shared());
    account_ = genesis_smallbank_accounts(*chain_, 1, 1000, 1000).front();
    chain_->start();
  }
  void TearDown() override {
    if (chain_) chain_->stop();
  }

  Transaction deposit(std::int64_t amount) const {
    return signed_tx(account_, "smallbank", "deposit_checking",
                     json::object({{"customer", account_}, {"amount", amount}}));
  }

  std::shared_ptr<Blockchain> chain_;
  std::string account_;
};

TEST_P(AdmissionTest, RejectsTamperedAndIdsAcceptedFromPayload) {
  deploy(/*verify_signatures=*/true);
  Transaction tampered = deposit(5);
  tampered.args["amount"] = 500;  // mutated after signing
  EXPECT_THROW(chain_->submit(tampered), RejectedError);

  Transaction good = deposit(5);
  const std::string id = chain_->submit(good);
  EXPECT_EQ(id, good.compute_id());
  TxReceipt receipt = wait_for_receipt(*chain_, id);
  EXPECT_EQ(receipt.tx_id, id);
  EXPECT_EQ(receipt.status, TxStatus::kCommitted);
  // The tampered submission came first, so had it been pooled it would be
  // sealed by now, in the good transaction's block or an earlier one.
  EXPECT_FALSE(chain_->tx_receipt(tampered.compute_id()).has_value());
}

TEST_P(AdmissionTest, UnverifiedIdComesFromTheReceivedBytes) {
  deploy(/*verify_signatures=*/false);
  Transaction tampered = deposit(5);
  const std::string signed_id = tampered.compute_id();
  tampered.args["amount"] = 500;
  const std::string id = chain_->submit(tampered);
  EXPECT_EQ(id, tampered.compute_id());
  EXPECT_NE(id, signed_id);
  EXPECT_EQ(wait_for_receipt(*chain_, id).tx_id, tampered.compute_id());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AdmissionTest,
                         ::testing::Values("neuchain", "ethereum", "meepo", "fabric"));

}  // namespace
}  // namespace hammer::chain
