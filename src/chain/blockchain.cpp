#include "chain/blockchain.hpp"

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/errors.hpp"
#include "util/random.hpp"

namespace hammer::chain {

namespace {
// SUT-side series (per process, across shards and instances) — the stand-in
// for the node exporters the paper's Prometheus pulls from each peer.
struct ChainMetrics {
  telemetry::Counter& blocks_sealed;
  telemetry::Counter& txs_committed;
  telemetry::Counter& txs_failed;
  telemetry::StageHistogram& block_txs;

  static ChainMetrics& get() {
    static ChainMetrics metrics;
    return metrics;
  }

 private:
  ChainMetrics()
      : blocks_sealed(telemetry::MetricRegistry::global().counter(
            "hammer_chain_blocks_sealed_total", "Blocks appended across all ledgers")),
        txs_committed(telemetry::MetricRegistry::global().counter(
            "hammer_chain_txs_total", "Transactions landed in blocks", "status=\"committed\"")),
        txs_failed(telemetry::MetricRegistry::global().counter(
            "hammer_chain_txs_total", "Transactions landed in blocks", "status=\"failed\"")),
        block_txs(telemetry::MetricRegistry::global().histogram(
            "hammer_chain_block_txs", "Transactions per sealed block", "",
            {1, 10, 50, 100, 250, 500, 1000, 2000, 4000})) {}
};
}  // namespace

ChainConfig ChainConfig::from_json(const json::Value& v) {
  ChainConfig c;
  c.name = v.get_string("name", c.name);
  c.num_shards = static_cast<std::uint32_t>(v.get_int("num_shards", c.num_shards));
  c.pool_capacity =
      static_cast<std::size_t>(v.get_int("pool_capacity", static_cast<std::int64_t>(c.pool_capacity)));
  c.max_block_txs =
      static_cast<std::size_t>(v.get_int("max_block_txs", static_cast<std::int64_t>(c.max_block_txs)));
  c.block_interval_ms = v.get_int("block_interval_ms", c.block_interval_ms);
  c.verify_signatures = v.get_bool("verify_signatures", c.verify_signatures);
  c.commit_cost_us = v.get_int("commit_cost_us", c.commit_cost_us);
  c.ingress_cost_us = v.get_int("ingress_cost_us", c.ingress_cost_us);
  c.seed = static_cast<std::uint64_t>(v.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.hash_rate = v.get_int("hash_rate", c.hash_rate);
  c.endorsers = static_cast<std::uint32_t>(v.get_int("endorsers", c.endorsers));
  HAMMER_CHECK(c.num_shards >= 1);
  HAMMER_CHECK(c.block_interval_ms > 0);
  return c;
}

json::Value ChainConfig::to_json() const {
  json::Object obj;
  obj["name"] = name;
  obj["num_shards"] = static_cast<std::int64_t>(num_shards);
  obj["pool_capacity"] = pool_capacity;
  obj["max_block_txs"] = max_block_txs;
  obj["block_interval_ms"] = block_interval_ms;
  obj["verify_signatures"] = verify_signatures;
  obj["commit_cost_us"] = commit_cost_us;
  obj["ingress_cost_us"] = ingress_cost_us;
  obj["seed"] = seed;
  obj["hash_rate"] = hash_rate;
  obj["endorsers"] = static_cast<std::int64_t>(endorsers);
  return json::Value(std::move(obj));
}

std::uint64_t Ledger::height() const {
  std::scoped_lock lock(mu_);
  return blocks_.size();
}

std::shared_ptr<const Block> Ledger::at(std::uint64_t height) const {
  std::scoped_lock lock(mu_);
  if (height == 0 || height > blocks_.size()) return nullptr;
  return blocks_[height - 1];  // heights are 1-based
}

std::shared_ptr<const Block> Ledger::latest() const {
  std::scoped_lock lock(mu_);
  return blocks_.empty() ? nullptr : blocks_.back();
}

void Ledger::append(Block block) {
  std::size_t committed_here = 0;
  const std::int64_t sealed_us = block.header.timestamp_us;
  const std::size_t sealed_txs = block.receipts.size();
  std::uint64_t sealed_height = 0;
  {
    std::scoped_lock lock(mu_);
    block.header.height = blocks_.size() + 1;
    sealed_height = block.header.height;
    for (const TxReceipt& r : block.receipts) {
      if (r.status == TxStatus::kCommitted) {
        ++committed_;
        ++committed_here;
      }
      tx_index_.emplace(r.tx_id, TxLocation{block.header.height, r});
    }
    ChainMetrics::get().block_txs.record(static_cast<std::int64_t>(block.receipts.size()));
    ChainMetrics::get().txs_failed.add(block.receipts.size() - committed_here);
    blocks_.push_back(std::make_shared<const Block>(std::move(block)));
  }
  ChainMetrics::get().blocks_sealed.add(1);
  ChainMetrics::get().txs_committed.add(committed_here);
  // Block seals are low-rate, so they are recorded unconditionally as
  // instant events (t0 == t1 == the header stamp) rather than sampled.
  // trace_id 0 keeps them off every per-tx critical path; the timeline
  // export renders them as markers on the sealing thread's track.
  telemetry::Span seal;
  seal.span_id = telemetry::SpanRecorder::global().next_span_id();
  seal.kind = telemetry::SpanKind::kBlockSeal;
  seal.t0_us = sealed_us;
  seal.t1_us = sealed_us;
  seal.thread = telemetry::this_thread_index();
  seal.detail = "h=" + std::to_string(sealed_height) + " txs=" + std::to_string(sealed_txs);
  telemetry::SpanRecorder::global().record(seal);
}

std::optional<Ledger::TxLocation> Ledger::find_tx(const std::string& tx_id) const {
  std::scoped_lock lock(mu_);
  auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Ledger::committed_tx_count() const {
  std::scoped_lock lock(mu_);
  return committed_;
}

Blockchain::Blockchain(ChainConfig config, std::shared_ptr<util::Clock> clock)
    : config_(std::move(config)),
      clock_(std::move(clock)),
      registry_(ContractRegistry::standard()) {
  HAMMER_CHECK(clock_ != nullptr);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    pools_.push_back(std::make_unique<TxPool>(config_.pool_capacity));
    states_.push_back(std::make_unique<StateStore>());
    ledgers_.push_back(std::make_unique<Ledger>());
  }
}

std::uint32_t Blockchain::shard_for_sender(const std::string& sender) const {
  if (config_.num_shards == 1) return 0;
  return static_cast<std::uint32_t>(std::hash<std::string>{}(sender) % config_.num_shards);
}

std::string Blockchain::submit(Transaction tx) {
  std::string id = admit(tx);
  pools_[shard_for_sender(tx.sender)]->submit(PooledTx{std::move(tx), id});
  return id;
}

std::string Blockchain::submit_via(std::uint32_t endpoint, std::uint32_t total_endpoints,
                                   Transaction tx) {
  HAMMER_CHECK(total_endpoints >= 1 && endpoint < total_endpoints);
  // Admission work is paid by the receiving endpoint's serving thread —
  // slept, not burned, like commit_cost_us — so each endpoint is an
  // independent admission lane.
  if (config_.ingress_cost_us > 0) {
    clock_->sleep_for(std::chrono::microseconds(config_.ingress_cost_us));
  }
  if (shard_for_sender(tx.sender) % total_endpoints != endpoint) {
    misrouted_.fetch_add(1, std::memory_order_relaxed);
  }
  return submit(std::move(tx));
}

std::string Blockchain::admit(const Transaction& tx) const {
  if (faults_) {
    const std::uint64_t key = tx.fault_key();
    // Scheduler-delay injection: the submitting thread loses its slice for
    // sched_delay_us before the chain even looks at the transaction.
    if (faults_->should(fault::FaultKind::kSchedDelay, key)) {
      clock_->sleep_for(std::chrono::microseconds(faults_->plan().sched_delay_us));
    }
    if (faults_->should(fault::FaultKind::kSubmitReject, key)) {
      throw RejectedError("injected transient submit rejection");
    }
  }
  const std::string payload = tx.signing_payload();
  if (config_.verify_signatures && !crypto::verify(tx.pubkey, payload, tx.signature)) {
    throw RejectedError("invalid transaction signature");
  }
  return payload_id(payload);
}

void Blockchain::maybe_stall_block_production(std::uint32_t shard) {
  if (!faults_ || !running_.load()) return;
  if (faults_->should(fault::FaultKind::kBlockStall,
                      util::derive_seed(shard, ledgers_[shard]->height()))) {
    clock_->sleep_for(std::chrono::milliseconds(faults_->plan().block_stall_ms));
  }
}

std::uint64_t Blockchain::height(std::uint32_t shard) const {
  HAMMER_CHECK(shard < config_.num_shards);
  return ledgers_[shard]->height();
}

std::shared_ptr<const Block> Blockchain::block_at(std::uint32_t shard,
                                                  std::uint64_t height) const {
  HAMMER_CHECK(shard < config_.num_shards);
  return ledgers_[shard]->at(height);
}

std::optional<Ledger::TxLocation> Blockchain::tx_receipt(const std::string& tx_id) const {
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    if (auto loc = ledgers_[s]->find_tx(tx_id)) return loc;
  }
  return std::nullopt;
}

json::Value Blockchain::query(std::uint32_t shard, const std::string& contract,
                              const std::string& op, const json::Value& args) const {
  HAMMER_CHECK(shard < config_.num_shards);
  TxContext ctx(*states_[shard]);
  ExecResult result = registry_->get(contract).execute(op, args, ctx);
  if (!result.ok) throw RejectedError(result.error);
  return result.return_value;
}

const StateStore& Blockchain::state(std::uint32_t shard) const {
  HAMMER_CHECK(shard < config_.num_shards);
  return *states_[shard];
}

std::string Blockchain::state_digest(std::uint32_t shard) const {
  return state(shard).state_digest();
}

json::Value Blockchain::stats() const {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t committed = 0;
  std::uint64_t blocks = 0;
  std::size_t pending = 0;
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    submitted += pools_[s]->total_submitted();
    rejected += pools_[s]->total_rejected();
    committed += ledgers_[s]->committed_tx_count();
    blocks += ledgers_[s]->height();
    pending += pools_[s]->size();
  }
  return json::object({{"submitted", submitted},
                       {"rejected", rejected},
                       {"committed", committed},
                       {"blocks", blocks},
                       {"pending", pending},
                       {"misrouted", misrouted_.load()}});
}

std::pair<ReadWriteSet, ExecResult> Blockchain::execute(const StateStore& state,
                                                        const Transaction& tx) const {
  TxContext ctx(state);
  ExecResult result = registry_->get(tx.contract).execute(tx.op, tx.args, ctx);
  return {ctx.take_rw_set(), std::move(result)};
}

void Blockchain::charge_commit_cost(std::size_t tx_count) {
  if (config_.commit_cost_us <= 0 || tx_count == 0) return;
  clock_->sleep_for(std::chrono::microseconds(config_.commit_cost_us) *
                    static_cast<std::int64_t>(tx_count));
}

void bind_chain_rpc(std::shared_ptr<Blockchain> chain, rpc::Dispatcher& dispatcher,
                    std::uint32_t endpoint, std::uint32_t total_endpoints) {
  HAMMER_CHECK(chain != nullptr);
  HAMMER_CHECK(total_endpoints >= 1 && endpoint < total_endpoints);

  dispatcher.register_method("chain.info", [chain](const json::Value&) {
    return json::object({{"name", chain->config().name},
                         {"kind", chain->kind()},
                         {"shards", static_cast<std::int64_t>(chain->num_shards())}});
  });

  dispatcher.register_method(
      "chain.submit", [chain, endpoint, total_endpoints](const json::Value& params) {
        Transaction tx = Transaction::from_json(params.at("tx"));
        // Nested under the handler span when the call is traced; separates
        // admission cost (ingress sleep + signature check + pool insert)
        // from the RPC plumbing around it. No-op for unsampled calls.
        telemetry::ScopedSpan span(telemetry::SpanKind::kChainSubmit);
        json::Value result;
        result["tx_id"] = chain->submit_via(endpoint, total_endpoints, std::move(tx));
        return result;
      });

  dispatcher.register_method("chain.shard_for", [chain](const json::Value& params) {
    return json::object({{"shard", static_cast<std::int64_t>(chain->shard_for_sender(
                                       params.at("sender").as_string()))}});
  });

  dispatcher.register_method(
      "endpoint.info", [chain, endpoint, total_endpoints](const json::Value&) {
        json::Array shards;
        for (std::uint32_t s = 0; s < chain->num_shards(); ++s) {
          if (s % total_endpoints == endpoint) {
            shards.push_back(json::Value(static_cast<std::int64_t>(s)));
          }
        }
        return json::object({{"endpoint", static_cast<std::int64_t>(endpoint)},
                             {"endpoints", static_cast<std::int64_t>(total_endpoints)},
                             {"shards", json::Value(std::move(shards))}});
      });

  dispatcher.register_method("chain.height", [chain](const json::Value& params) {
    auto shard = static_cast<std::uint32_t>(params.get_int("shard", 0));
    return json::object({{"height", chain->height(shard)}});
  });

  dispatcher.register_method("chain.block", [chain](const json::Value& params) {
    auto shard = static_cast<std::uint32_t>(params.get_int("shard", 0));
    auto height = static_cast<std::uint64_t>(params.at("height").as_int());
    std::shared_ptr<const Block> block = chain->block_at(shard, height);
    if (!block) throw NotFoundError("block " + std::to_string(height));
    return block->to_json();
  });

  dispatcher.register_method("chain.query", [chain](const json::Value& params) {
    auto shard = static_cast<std::uint32_t>(params.get_int("shard", 0));
    return chain->query(shard, params.at("contract").as_string(), params.at("op").as_string(),
                        params.contains("args") ? params.at("args") : json::Value());
  });

  dispatcher.register_method("chain.stats",
                             [chain](const json::Value&) { return chain->stats(); });

  dispatcher.register_method("chain.tx_receipt", [chain](const json::Value& params) {
    auto loc = chain->tx_receipt(params.at("tx_id").as_string());
    if (!loc) return json::object({{"found", false}});
    return json::object({{"found", true},
                         {"height", loc->height},
                         {"status", static_cast<int>(loc->receipt.status)}});
  });

  dispatcher.register_method("chain.receipts", [chain](const json::Value& params) {
    // Multi-transaction poll: one RPC answers a whole tick of interactive
    // tracking; entries align with tx_ids by index.
    json::Array out;
    const json::Array& ids = params.at("tx_ids").as_array();
    out.reserve(ids.size());
    for (const json::Value& idv : ids) {
      auto loc = chain->tx_receipt(idv.as_string());
      if (!loc) {
        out.push_back(json::object({{"found", false}}));
      } else {
        out.push_back(json::object({{"found", true},
                                    {"height", loc->height},
                                    {"status", static_cast<int>(loc->receipt.status)}}));
      }
    }
    return json::object({{"receipts", json::Value(std::move(out))}});
  });

  dispatcher.register_method("chain.state_digest", [chain](const json::Value& params) {
    auto shard = static_cast<std::uint32_t>(params.get_int("shard", 0));
    return json::object({{"digest", chain->state_digest(shard)}});
  });
}

}  // namespace hammer::chain
