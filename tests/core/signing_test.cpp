#include "core/signing.hpp"

#include <gtest/gtest.h>

namespace hammer::core {
namespace {

std::vector<chain::Transaction> make_txs(std::size_t n) {
  std::vector<chain::Transaction> txs;
  for (std::size_t i = 0; i < n; ++i) {
    chain::Transaction tx;
    tx.contract = "smallbank";
    tx.op = "deposit_checking";
    tx.sender = "acct" + std::to_string(i % 7);
    tx.args = json::object({{"customer", tx.sender}, {"amount", 1}});
    tx.nonce = i;
    txs.push_back(std::move(tx));
  }
  return txs;
}

TEST(KeyCacheTest, MemoizesDerivation) {
  KeyCache cache;
  const crypto::KeyPair& a = cache.get("alice");
  const crypto::KeyPair& again = cache.get("alice");
  EXPECT_EQ(&a, &again);  // same object: derived once
  EXPECT_EQ(a.pub, crypto::derive_keypair("alice").pub);
}

TEST(KeyCacheTest, WarmPrepopulates) {
  KeyCache cache;
  cache.warm({"a", "b", "c"});
  EXPECT_EQ(cache.get("b").pub, crypto::derive_keypair("b").pub);
}

TEST(SignSerialTest, AllSignaturesValid) {
  auto txs = make_txs(50);
  KeyCache keys;
  const std::vector<std::string> ids = sign_serial(txs, keys);
  ASSERT_EQ(ids.size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_TRUE(txs[i].verify_signature());
    EXPECT_EQ(ids[i], txs[i].compute_id());
  }
}

TEST(AsyncSignerTest, MatchesSerialResults) {
  auto txs_serial = make_txs(100);
  auto txs_async = make_txs(100);
  KeyCache keys_serial;
  sign_serial(txs_serial, keys_serial);
  AsyncSigner signer(3, std::make_shared<KeyCache>());
  signer.sign_batch(txs_async);
  for (std::size_t i = 0; i < txs_serial.size(); ++i) {
    // Deterministic nonces: identical signatures regardless of strategy.
    EXPECT_EQ(txs_async[i].signature, txs_serial[i].signature);
    EXPECT_TRUE(txs_async[i].verify_signature());
  }
}

TEST(AsyncSignerTest, EmptyBatchIsNoop) {
  std::vector<chain::Transaction> empty;
  AsyncSigner signer(2, std::make_shared<KeyCache>());
  signer.sign_batch(empty);
  SUCCEED();
}

TEST(SigningPipelineTest, StreamsAllTransactionsSigned) {
  auto txs = make_txs(200);
  SigningPipeline pipeline(txs, std::make_shared<KeyCache>(), 16);
  std::size_t count = 0;
  while (auto tx = pipeline.pop()) {
    EXPECT_TRUE(tx->verify_signature());
    ++count;
  }
  EXPECT_EQ(count, 200u);
}

TEST(SigningPipelineTest, PreservesOrder) {
  auto txs = make_txs(50);
  SigningPipeline pipeline(txs, std::make_shared<KeyCache>(), 8);
  std::uint64_t expected_nonce = 0;
  while (auto tx = pipeline.pop()) {
    EXPECT_EQ(tx->nonce, expected_nonce++);
  }
}

TEST(SigningPipelineTest, EarlyDestructionDoesNotHang) {
  auto txs = make_txs(500);
  {
    SigningPipeline pipeline(txs, std::make_shared<KeyCache>(), 4);
    pipeline.pop();  // consume one, then drop the pipeline
  }
  SUCCEED();
}

}  // namespace
}  // namespace hammer::core
