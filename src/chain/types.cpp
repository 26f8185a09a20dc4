#include "chain/types.hpp"

#include "crypto/merkle.hpp"
#include "util/errors.hpp"
#include "util/hex.hpp"

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
  json::Object obj;
  obj["contract"] = contract;
  obj["op"] = op;
  obj["args"] = args;
  obj["sender"] = sender;
  obj["client_id"] = client_id;
  obj["server_id"] = server_id;
  obj["nonce"] = nonce;
  obj["pubkey"] = pubkey.y.to_hex();
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
  obj["tx_id"] = tx_id;
  obj["status"] = static_cast<int>(status);
  if (!detail.empty()) obj["detail"] = detail;
  return json::Value(std::move(obj));
}

TxReceipt TxReceipt::from_json(const json::Value& v) {
  TxReceipt r;
  r.tx_id = v.at("tx_id").as_string();
  r.status = static_cast<TxStatus>(v.get_int("status", 0));
  r.detail = v.get_string("detail", "");
  return r;
}

std::string BlockHeader::hash() const {
  return crypto::digest_hex(crypto::sha256(to_json().dump()));
}

json::Value BlockHeader::to_json() const {
  json::Object obj;
  obj["height"] = height;
  obj["shard"] = static_cast<std::int64_t>(shard);
  obj["parent"] = parent_hash;
  obj["merkle_root"] = merkle_root;
  obj["timestamp_us"] = timestamp_us;
  obj["nonce"] = nonce;
  obj["producer"] = producer;
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
  obj["header"] = header.to_json();
  json::Array rs;
  rs.reserve(receipts.size());
  for (const TxReceipt& r : receipts) rs.push_back(r.to_json());
  obj["receipts"] = json::Value(std::move(rs));
  return json::Value(std::move(obj));
}

Block Block::from_json(const json::Value& v) {
  Block b;
  b.header = BlockHeader::from_json(v.at("header"));
  for (const json::Value& r : v.at("receipts").as_array()) {
    b.receipts.push_back(TxReceipt::from_json(r));
  }
  return b;
}

}  // namespace hammer::chain
