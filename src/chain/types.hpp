// Core ledger data types shared by all chain simulators.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "json/json.hpp"

namespace hammer::chain {

// A signed smart-contract invocation. The id is the hex SHA-256 of the
// canonical payload. Each process derives it once, from the payload it
// signed (the client) or verified (the SUT), and carries it beside the
// transaction from then on; both sides land on the same id.
struct Transaction {
  std::string contract;   // target contract, e.g. "smallbank"
  std::string op;         // operation, e.g. "send_payment"
  json::Value args;       // operation arguments (object)
  std::string sender;     // account that signs
  std::string client_id;  // generating client (paper Alg. 1: c_id)
  std::string server_id;  // sending server (paper Alg. 1: s_id)
  std::uint64_t nonce = 0;

  crypto::PublicKey pubkey;
  crypto::Signature signature;

  // Canonical byte string covered by the signature and hashed into the id:
  // the payload fields as compact JSON with sorted keys.
  std::string signing_payload() const;
  std::string compute_id() const;  // payload_id(signing_payload())

  // Signs the payload and returns the id of the same bytes.
  std::string sign_with(const crypto::KeyPair& keys);
  bool verify_signature() const;

  json::Value to_json() const;
  static Transaction from_json(const json::Value& v);
};

// Hex SHA-256 of a signing payload: the transaction id.
std::string payload_id(std::string_view payload);

enum class TxStatus : std::uint8_t { kCommitted, kConflict, kInvalid };

const char* tx_status_name(TxStatus status);

// Per-transaction outcome recorded in a block.
struct TxReceipt {
  std::string tx_id;
  TxStatus status = TxStatus::kCommitted;
  std::string detail;  // e.g. the conflicting key for MVCC failures

  json::Value to_json() const;
  static TxReceipt from_json(const json::Value& v);
};

struct BlockHeader {
  std::uint64_t height = 0;
  std::uint32_t shard = 0;
  std::string parent_hash;   // hex
  std::string merkle_root;   // hex root over tx ids
  std::int64_t timestamp_us = 0;  // producer clock at sealing time
  std::uint64_t nonce = 0;        // PoW nonce (0 for non-PoW chains)
  std::string producer;           // node id that sealed the block

  std::string hash() const;  // hex SHA-256 of the serialized header
  json::Value to_json() const;
  static BlockHeader from_json(const json::Value& v);
};

struct Block {
  BlockHeader header;
  std::vector<TxReceipt> receipts;

  // Root over the receipt tx ids; recomputed when sealing.
  static std::string compute_merkle_root(const std::vector<TxReceipt>& receipts);

  json::Value to_json() const;
  static Block from_json(const json::Value& v);
};

}  // namespace hammer::chain
