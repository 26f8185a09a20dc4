#include "chain/types.hpp"

#include "crypto/merkle.hpp"
#include "util/errors.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"

namespace hammer::chain {

std::string Transaction::signing_payload() const {
  // The keys are written in sorted order, so the bytes equal dump() of the
  // same fields as a json::Object. The nonce is printed as json::Value
  // stores it: as an int64.
  std::string out;
  out.reserve(192 + contract.size() + op.size() + sender.size() + client_id.size() +
              server_id.size());
  out += "{\"args\":";
  args.dump_into(out);
  out += ",\"client_id\":";
  json::write_escaped(out, client_id);
  out += ",\"contract\":";
  json::write_escaped(out, contract);
  out += ",\"nonce\":";
  out += std::to_string(static_cast<std::int64_t>(nonce));
  out += ",\"op\":";
  json::write_escaped(out, op);
  out += ",\"sender\":";
  json::write_escaped(out, sender);
  out += ",\"server_id\":";
  json::write_escaped(out, server_id);
  out += '}';
  return out;
}

std::string Transaction::compute_id() const { return payload_id(signing_payload()); }

std::uint64_t Transaction::fault_key() const {
  // std::hash, like shard_for_sender: client and SUT run the same build.
  const std::hash<std::string> hash;
  return util::derive_seed(util::derive_seed(hash(sender), hash(client_id)), nonce);
}

std::string Transaction::sign_with(const crypto::KeyPair& keys) {
  pubkey = keys.pub;
  const std::string payload = signing_payload();
  signature = crypto::sign(keys.priv, payload);
  return payload_id(payload);
}

bool Transaction::verify_signature() const {
  return crypto::verify(pubkey, signing_payload(), signature);
}

std::string payload_id(std::string_view payload) {
  return crypto::digest_hex(crypto::sha256(payload));
}

json::Value Transaction::to_json() const {
  // Sized once and filled in key order, so each member is appended.
  json::Object obj;
  obj.reserve(9);
  obj["args"] = args;
  obj["client_id"] = client_id;
  obj["contract"] = contract;
  obj["nonce"] = nonce;
  obj["op"] = op;
  obj["pubkey"] = pubkey.y.to_hex();
  obj["sender"] = sender;
  obj["server_id"] = server_id;
  obj["sig"] = signature.to_hex();
  return json::Value(std::move(obj));
}

Transaction Transaction::from_json(const json::Value& v) {
  Transaction tx;
  tx.contract = v.at("contract").as_string();
  tx.op = v.at("op").as_string();
  tx.args = v.contains("args") ? v.at("args") : json::Value();
  tx.sender = v.get_string("sender", "");
  tx.client_id = v.get_string("client_id", "");
  tx.server_id = v.get_string("server_id", "");
  tx.nonce = static_cast<std::uint64_t>(v.get_int("nonce", 0));
  tx.pubkey.y = crypto::U256::from_hex(v.at("pubkey").as_string());
  tx.signature = crypto::Signature::from_hex(v.at("sig").as_string());
  return tx;
}

const char* tx_status_name(TxStatus status) {
  switch (status) {
    case TxStatus::kCommitted: return "committed";
    case TxStatus::kConflict: return "conflict";
    case TxStatus::kInvalid: return "invalid";
  }
  return "?";
}

json::Value TxReceipt::to_json() const {
  json::Object obj;
  obj.reserve(detail.empty() ? 2 : 3);
  if (!detail.empty()) obj["detail"] = detail;
  obj["status"] = static_cast<int>(status);
  obj["tx_id"] = tx_id;
  return json::Value(std::move(obj));
}

TxReceipt TxReceipt::from_json(json::Value v) {
  TxReceipt r;
  r.tx_id = std::move(v.at("tx_id").as_string());
  r.status = static_cast<TxStatus>(v.get_int("status", 0));
  if (v.contains("detail")) r.detail = std::move(v.at("detail").as_string());
  return r;
}

std::string BlockHeader::hash() const {
  return crypto::digest_hex(crypto::sha256(to_json().dump()));
}

json::Value BlockHeader::to_json() const {
  json::Object obj;
  obj.reserve(7);
  obj["height"] = height;
  obj["merkle_root"] = merkle_root;
  obj["nonce"] = nonce;
  obj["parent"] = parent_hash;
  obj["producer"] = producer;
  obj["shard"] = static_cast<std::int64_t>(shard);
  obj["timestamp_us"] = timestamp_us;
  return json::Value(std::move(obj));
}

BlockHeader BlockHeader::from_json(const json::Value& v) {
  BlockHeader h;
  h.height = static_cast<std::uint64_t>(v.at("height").as_int());
  h.shard = static_cast<std::uint32_t>(v.get_int("shard", 0));
  h.parent_hash = v.get_string("parent", "");
  h.merkle_root = v.get_string("merkle_root", "");
  h.timestamp_us = v.get_int("timestamp_us", 0);
  h.nonce = static_cast<std::uint64_t>(v.get_int("nonce", 0));
  h.producer = v.get_string("producer", "");
  return h;
}

std::string Block::compute_merkle_root(const std::vector<TxReceipt>& receipts) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(receipts.size());
  for (const TxReceipt& r : receipts) leaves.push_back(crypto::sha256(r.tx_id));
  return crypto::digest_hex(crypto::merkle_root(leaves));
}

json::Value Block::to_json() const {
  json::Object obj;
  obj.reserve(2);
  obj["header"] = header.to_json();
  json::Array rs;
  rs.reserve(receipts.size());
  for (const TxReceipt& r : receipts) rs.push_back(r.to_json());
  obj["receipts"] = json::Value(std::move(rs));
  return json::Value(std::move(obj));
}

Block Block::from_json(json::Value v) {
  Block b;
  b.header = BlockHeader::from_json(v.at("header"));
  json::Array& receipts = v.at("receipts").as_array();
  b.receipts.reserve(receipts.size());
  for (json::Value& r : receipts) b.receipts.push_back(TxReceipt::from_json(std::move(r)));
  return b;
}

}  // namespace hammer::chain
