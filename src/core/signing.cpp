#include "core/signing.hpp"

#include "util/errors.hpp"

namespace hammer::core {

const crypto::KeyPair& KeyCache::get(const std::string& sender) {
  std::scoped_lock lock(mu_);
  auto it = keys_.find(sender);
  if (it == keys_.end()) {
    it = keys_.emplace(sender, crypto::derive_keypair(sender)).first;
  }
  return it->second;
}

void KeyCache::warm(const std::vector<std::string>& senders) {
  for (const std::string& sender : senders) get(sender);
}

std::vector<std::string> sign_serial(std::vector<chain::Transaction>& txs, KeyCache& keys) {
  std::vector<std::string> ids;
  ids.reserve(txs.size());
  for (chain::Transaction& tx : txs) ids.push_back(tx.sign_with(keys.get(tx.sender)));
  return ids;
}

AsyncSigner::AsyncSigner(std::size_t threads, std::shared_ptr<KeyCache> keys)
    : pool_(threads), keys_(std::move(keys)) {
  HAMMER_CHECK(keys_ != nullptr);
}

void AsyncSigner::sign_batch(std::vector<chain::Transaction>& txs) {
  // Shard the batch across workers; futures gate completion.
  std::size_t shards = pool_.size() * 4;
  std::size_t chunk = (txs.size() + shards - 1) / shards;
  if (chunk == 0) return;
  std::vector<std::future<void>> futures;
  for (std::size_t begin = 0; begin < txs.size(); begin += chunk) {
    std::size_t end = std::min(begin + chunk, txs.size());
    futures.push_back(pool_.submit([this, &txs, begin, end] {
      for (std::size_t i = begin; i < end; ++i) txs[i].sign_with(keys_->get(txs[i].sender));
    }));
  }
  for (auto& f : futures) f.get();
}

SigningPipeline::SigningPipeline(std::vector<chain::Transaction> txs,
                                 std::shared_ptr<KeyCache> keys, std::size_t queue_capacity)
    : keys_(std::move(keys)), queue_(queue_capacity) {
  HAMMER_CHECK(keys_ != nullptr);
  signer_ = std::thread([this, txs = std::move(txs)]() mutable {
    for (chain::Transaction& tx : txs) {
      tx.sign_with(keys_->get(tx.sender));
      if (!queue_.push(std::move(tx))) return;  // consumer closed early
    }
    queue_.close();
  });
}

SigningPipeline::~SigningPipeline() {
  queue_.close();
  if (signer_.joinable()) signer_.join();
}

std::optional<chain::Transaction> SigningPipeline::pop() { return queue_.pop(); }

}  // namespace hammer::core
