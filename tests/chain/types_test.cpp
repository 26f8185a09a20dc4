#include "chain/types.hpp"

#include <gtest/gtest.h>

#include "workload/generator.hpp"

namespace hammer::chain {
namespace {

Transaction make_tx(const std::string& sender = "alice") {
  Transaction tx;
  tx.contract = "smallbank";
  tx.op = "deposit_checking";
  tx.args = json::object({{"customer", sender}, {"amount", 10}});
  tx.sender = sender;
  tx.client_id = "c0";
  tx.server_id = "s0";
  tx.nonce = 7;
  tx.sign_with(crypto::derive_keypair(sender));
  return tx;
}

TEST(TransactionTest, IdIsDeterministic) {
  EXPECT_EQ(make_tx().compute_id(), make_tx().compute_id());
  EXPECT_EQ(make_tx().compute_id().size(), 64u);
}

TEST(TransactionTest, IdChangesWithContent) {
  Transaction a = make_tx();
  Transaction b = make_tx();
  b.nonce = 8;
  EXPECT_NE(a.compute_id(), b.compute_id());
}

TEST(TransactionTest, SignatureVerifies) {
  Transaction tx = make_tx();
  EXPECT_TRUE(tx.verify_signature());
  tx.nonce = 99;  // payload changed after signing
  EXPECT_FALSE(tx.verify_signature());
}

TEST(TransactionTest, JsonRoundTripPreservesIdentityAndSignature) {
  Transaction tx = make_tx();
  Transaction back = Transaction::from_json(tx.to_json());
  EXPECT_EQ(back.compute_id(), tx.compute_id());
  EXPECT_TRUE(back.verify_signature());
  EXPECT_EQ(back.client_id, "c0");
  EXPECT_EQ(back.args.at("amount").as_int(), 10);
}

// The oracle for the payload writer: the same fields as a json::Object,
// whose sorted keys make dump() canonical.
std::string object_payload(const Transaction& tx) {
  json::Object obj;
  obj["contract"] = tx.contract;
  obj["op"] = tx.op;
  obj["args"] = tx.args;
  obj["sender"] = tx.sender;
  obj["client_id"] = tx.client_id;
  obj["server_id"] = tx.server_id;
  obj["nonce"] = tx.nonce;
  return json::Value(std::move(obj)).dump();
}

void expect_payload_matches_oracle(Transaction tx) {
  const std::string oracle = object_payload(tx);
  EXPECT_EQ(tx.signing_payload(), oracle);
  EXPECT_EQ(tx.compute_id(), payload_id(oracle));
  EXPECT_EQ(tx.sign_with(crypto::derive_keypair("payload-test")), payload_id(oracle));
}

TEST(SigningPayloadTest, MatchesObjectWriterOnSmallBankWorkload) {
  workload::WorkloadProfile profile;
  profile.seed = 11;
  std::vector<std::string> accounts;
  for (int i = 0; i < 200; ++i) accounts.push_back("acct" + std::to_string(i));
  std::unique_ptr<workload::Generator> generator = workload::make_generator(profile, accounts);
  const crypto::KeyPair keys = crypto::derive_keypair("payload-test");
  for (int i = 0; i < 10000; ++i) {
    Transaction tx = generator->next();
    tx.server_id = i % 5 == 0 ? "srv \"" + std::to_string(i) + "\"\\" : "server-0";
    const std::string oracle = object_payload(tx);
    ASSERT_EQ(tx.signing_payload(), oracle) << "tx " << i;
    ASSERT_EQ(tx.sign_with(keys), payload_id(oracle)) << "tx " << i;
  }
}

TEST(SigningPayloadTest, EscapesStringsLikeTheObjectWriter) {
  Transaction tx = make_tx();
  tx.contract = "quote\" back\\slash";
  tx.op = std::string("ctl\b\f\n\r\t\x01\x1f") + '\0';
  tx.sender = "utf8 \xc3\xa9\xe2\x82\xac\xf0\x9f\x94\xa8";
  tx.client_id = "";
  tx.server_id = "\"\\\"";
  tx.args = json::object({{"k\"ey", "v\n"}, {"\xc3\xa9", "\x7f"}});
  expect_payload_matches_oracle(tx);
  EXPECT_NE(tx.signing_payload().find("\\u0000"), std::string::npos);
}

TEST(SigningPayloadTest, NullEmptyAndNestedArgs) {
  Transaction tx = make_tx();
  tx.args = json::Value();
  expect_payload_matches_oracle(tx);
  EXPECT_NE(tx.signing_payload().find("\"args\":null"), std::string::npos);
  tx.args = json::Value(json::Object{});
  expect_payload_matches_oracle(tx);
  tx.args = json::Value(json::Array{});
  expect_payload_matches_oracle(tx);
  tx.args = json::object({{"rows", json::array({json::array({1, 2}), json::array({}), "x",
                                                json::object({{"b", 1.5}, {"a", nullptr}})})},
                          {"flag", true}});
  expect_payload_matches_oracle(tx);
}

TEST(SigningPayloadTest, NonceAboveInt64PrintsAsNegative) {
  Transaction tx = make_tx();
  tx.nonce = (std::uint64_t{1} << 63) + 5;
  expect_payload_matches_oracle(tx);
  EXPECT_NE(tx.signing_payload().find("\"nonce\":-9223372036854775803"), std::string::npos);
  tx.nonce = UINT64_MAX;
  expect_payload_matches_oracle(tx);
  EXPECT_NE(tx.signing_payload().find("\"nonce\":-1,"), std::string::npos);
}

TEST(SigningPayloadTest, GoldenId) {
  // Captured from the json::Object payload writer; a change here changes
  // every transaction id, and with it Neuchain's block order.
  const Transaction tx = make_tx();
  EXPECT_EQ(tx.signing_payload(),
            "{\"args\":{\"amount\":10,\"customer\":\"alice\"},\"client_id\":\"c0\","
            "\"contract\":\"smallbank\",\"nonce\":7,\"op\":\"deposit_checking\","
            "\"sender\":\"alice\",\"server_id\":\"s0\"}");
  EXPECT_EQ(tx.compute_id(), "67ecdb219627778491ef4594b78811a64e6d06aeb745f2d007fde62044fe32c9");
}

TEST(ReceiptTest, JsonRoundTrip) {
  TxReceipt r{"abc", TxStatus::kConflict, "MVCC on sb:c:x"};
  TxReceipt back = TxReceipt::from_json(r.to_json());
  EXPECT_EQ(back.tx_id, "abc");
  EXPECT_EQ(back.status, TxStatus::kConflict);
  EXPECT_EQ(back.detail, "MVCC on sb:c:x");
}

TEST(ReceiptTest, StatusNames) {
  EXPECT_STREQ(tx_status_name(TxStatus::kCommitted), "committed");
  EXPECT_STREQ(tx_status_name(TxStatus::kConflict), "conflict");
  EXPECT_STREQ(tx_status_name(TxStatus::kInvalid), "invalid");
}

TEST(BlockTest, MerkleRootTracksReceiptSet) {
  std::vector<TxReceipt> a = {{"t1", TxStatus::kCommitted, ""}, {"t2", TxStatus::kCommitted, ""}};
  std::vector<TxReceipt> b = {{"t1", TxStatus::kCommitted, ""}, {"t3", TxStatus::kCommitted, ""}};
  EXPECT_NE(Block::compute_merkle_root(a), Block::compute_merkle_root(b));
  EXPECT_EQ(Block::compute_merkle_root(a), Block::compute_merkle_root(a));
}

TEST(BlockTest, HeaderHashCoversNonce) {
  BlockHeader h;
  h.height = 1;
  h.merkle_root = "aa";
  std::string hash1 = h.hash();
  h.nonce = 1;
  EXPECT_NE(h.hash(), hash1);
}

TEST(BlockTest, JsonRoundTrip) {
  Block b;
  b.header.height = 5;
  b.header.shard = 1;
  b.header.parent_hash = "p";
  b.header.merkle_root = "m";
  b.header.timestamp_us = 123456;
  b.header.producer = "node-1";
  b.receipts.push_back({"t1", TxStatus::kCommitted, ""});
  b.receipts.push_back({"t2", TxStatus::kInvalid, "bad"});
  Block back = Block::from_json(b.to_json());
  EXPECT_EQ(back.header.height, 5u);
  EXPECT_EQ(back.header.shard, 1u);
  EXPECT_EQ(back.header.timestamp_us, 123456);
  ASSERT_EQ(back.receipts.size(), 2u);
  EXPECT_EQ(back.receipts[1].status, TxStatus::kInvalid);
}

}  // namespace
}  // namespace hammer::chain
