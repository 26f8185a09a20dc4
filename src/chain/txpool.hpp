// Bounded transaction pool. Chains reject submissions when the pool is
// full — this is the overload behaviour behind the paper's Fig. 10 knee
// ("nodes reject some requests to prevent overload").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "chain/types.hpp"

namespace hammer::chain {

// A pooled transaction with the id the chain derived at admission, so the
// block producers never hash the payload again.
struct PooledTx {
  Transaction tx;
  std::string id;
};

class TxPool {
 public:
  explicit TxPool(std::size_t capacity);

  // Throws RejectedError when full.
  void submit(PooledTx entry);

  // Removes and returns up to max_count entries (FIFO); may be empty.
  std::vector<PooledTx> drain(std::size_t max_count);

  // Blocks until at least one transaction is pooled or the pool is closed;
  // then drains like drain(). Used by epoch-driven producers.
  std::vector<PooledTx> wait_and_drain(std::size_t max_count);

  void close();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_submitted() const;
  std::uint64_t total_rejected() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PooledTx> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  std::uint64_t total_submitted_ = 0;
  std::uint64_t total_rejected_ = 0;
};

}  // namespace hammer::chain
