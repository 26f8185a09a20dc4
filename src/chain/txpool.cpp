#include "chain/txpool.hpp"

#include "util/errors.hpp"

namespace hammer::chain {

TxPool::TxPool(std::size_t capacity) : capacity_(capacity) { HAMMER_CHECK(capacity > 0); }

void TxPool::submit(PooledTx entry) {
  {
    std::scoped_lock lock(mu_);
    if (closed_) throw RejectedError("chain is shutting down");
    if (queue_.size() >= capacity_) {
      ++total_rejected_;
      throw RejectedError("transaction pool full (" + std::to_string(capacity_) + ")");
    }
    queue_.push_back(std::move(entry));
    ++total_submitted_;
  }
  cv_.notify_one();
}

std::vector<PooledTx> TxPool::drain(std::size_t max_count) {
  std::scoped_lock lock(mu_);
  std::size_t n = std::min(max_count, queue_.size());
  std::vector<PooledTx> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return out;
}

std::vector<PooledTx> TxPool::wait_and_drain(std::size_t max_count) {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  std::size_t n = std::min(max_count, queue_.size());
  std::vector<PooledTx> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return out;
}

void TxPool::close() {
  {
    std::scoped_lock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t TxPool::size() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

std::uint64_t TxPool::total_submitted() const {
  std::scoped_lock lock(mu_);
  return total_submitted_;
}

std::uint64_t TxPool::total_rejected() const {
  std::scoped_lock lock(mu_);
  return total_rejected_;
}

}  // namespace hammer::chain
