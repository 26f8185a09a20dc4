#include "kvstore/kvstore.hpp"

#include "util/errors.hpp"

namespace hammer::kvstore {

KvStore::KvStore(std::shared_ptr<util::Clock> clock, Options options)
    : clock_(std::move(clock)), options_(options) {
  HAMMER_CHECK(clock_ != nullptr);
  HAMMER_CHECK(options_.num_shards > 0);
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

KvStore::KvStore(std::shared_ptr<util::Clock> clock, std::size_t num_shards)
    : KvStore(std::move(clock), Options{.num_shards = num_shards}) {}

KvStore::Shard& KvStore::shard_for(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool KvStore::expired(const Entry& entry) const {
  return entry.expires_at.has_value() && clock_->now() >= *entry.expires_at;
}

void KvStore::charge_op_cost() const {
  if (options_.op_cost_us > 0) {
    clock_->sleep_for(std::chrono::microseconds(options_.op_cost_us));
  }
}

KvStore::Entry* KvStore::find_live(Shard& shard, const std::string& key) const {
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  if (expired(it->second)) {
    shard.map.erase(it);
    return nullptr;
  }
  return &it->second;
}

KvStore::HsetManyResult KvStore::hset_many(
    const std::string& key, std::span<const std::pair<std::string, std::string>> fields,
    bool mark_dirty, util::Duration ttl) {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  charge_op_cost();
  Entry* entry = find_live(shard, key);
  if (!entry) entry = &shard.map.emplace(key, Entry{}).first->second;
  HsetManyResult result;
  for (const auto& [field, value] : fields) {
    if (entry->value.insert_or_assign(field, value).second) ++result.created;
  }
  if (ttl > util::Duration::zero()) entry->expires_at = clock_->now() + ttl;
  if (mark_dirty) {
    // A record bound for the table store must not age out before the drain
    // (it may have been cached earlier, incomplete, with a pending TTL).
    entry->expires_at.reset();
    if (entry->dirty) {
      result.dirty_marked = true;  // already queued: a cheap no-op
    } else if (shard.dirty.size() < options_.dirty_capacity_per_shard) {
      shard.dirty.push_back(key);
      entry->dirty = true;
      dirty_count_.fetch_add(1, std::memory_order_relaxed);
      result.dirty_marked = true;
    }
    result.dirty_dropped = !result.dirty_marked;
  }
  return result;
}

Hash KvStore::hgetall(const std::string& key) const {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  Entry* entry = find_live(shard, key);
  return entry ? entry->value : Hash{};
}

bool KvStore::exists(const std::string& key) const {
  Shard& shard = shard_for(key);
  std::scoped_lock lock(shard.mu);
  return find_live(shard, key) != nullptr;
}

std::size_t KvStore::drain_dirty(
    const std::function<void(const std::string& key, const Hash& fields)>& fn) {
  std::size_t drained = 0;
  for (const auto& shard : shards_) {
    std::vector<std::string> batch;
    {
      std::scoped_lock lock(shard->mu);
      if (shard->dirty.empty()) continue;
      charge_op_cost();  // one pipelined HGETALL+DEL round per shard batch
      batch.swap(shard->dirty);
      dirty_count_.fetch_sub(batch.size(), std::memory_order_relaxed);
      for (const std::string& key : batch) {
        Entry* entry = find_live(*shard, key);
        // A dirty key may have expired since it was marked (a later write
        // re-armed its TTL); that row was evicted, not committed, and is
        // simply skipped.
        if (!entry || !entry->dirty) continue;
        fn(key, entry->value);
        ++drained;
        shard->map.erase(key);
      }
    }
  }
  return drained;
}

std::size_t KvStore::evict_expired() {
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (expired(it->second)) {
        it = shard->map.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

}  // namespace hammer::kvstore
