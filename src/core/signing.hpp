// Transaction signing strategies (paper §III-D1, Fig. 4, Fig. 8).
//
//  - sign_serial:   the naive baseline — sign every transaction, then hand
//                   the whole batch over (execution waits for all of it).
//  - AsyncSigner:   signatures are independent of each other, so they fan
//                   out across a thread pool ("asynchronous signatures
//                   method"); the caller still waits for the batch.
//  - SigningPipeline: the full optimization — signed transactions stream
//                   into a bounded queue as they become ready, so the
//                   execution phase overlaps the preparation phase
//                   ("pipelining preparation and execution", Fig. 4c).
//
// Account keys are derived from the sender name (deterministic across
// client/server/SUT) and memoized, so the measured cost is the signature
// itself, as in the paper.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chain/types.hpp"
#include "crypto/schnorr.hpp"
#include "util/mpmc_queue.hpp"
#include "util/thread_pool.hpp"

namespace hammer::core {

// Thread-safe memoized sender -> keypair derivation.
class KeyCache {
 public:
  const crypto::KeyPair& get(const std::string& sender);

  // Pre-derives keys for a known account population (outside timed runs).
  void warm(const std::vector<std::string>& senders);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, crypto::KeyPair> keys_;
};

// Signs in place, one after another, on the calling thread; returns each
// transaction's id, derived from the payload it signed.
std::vector<std::string> sign_serial(std::vector<chain::Transaction>& txs, KeyCache& keys);

class AsyncSigner {
 public:
  explicit AsyncSigner(std::size_t threads, std::shared_ptr<KeyCache> keys);

  // Signs the batch across the pool; returns when every tx is signed.
  void sign_batch(std::vector<chain::Transaction>& txs);

 private:
  util::ThreadPool pool_;
  std::shared_ptr<KeyCache> keys_;
};

// Streams signed transactions into a bounded queue from a background
// signer thread. Consumers pop() while signing continues — preparation and
// execution overlap.
class SigningPipeline {
 public:
  SigningPipeline(std::vector<chain::Transaction> txs, std::shared_ptr<KeyCache> keys,
                  std::size_t queue_capacity = 1024);
  ~SigningPipeline();

  // nullopt once every transaction has been consumed.
  std::optional<chain::Transaction> pop();

 private:
  std::shared_ptr<KeyCache> keys_;
  util::MpmcQueue<chain::Transaction> queue_;
  std::thread signer_;
};

}  // namespace hammer::core
