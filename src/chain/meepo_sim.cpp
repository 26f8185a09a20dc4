#include "chain/meepo_sim.hpp"

#include <charconv>

#include "util/errors.hpp"

namespace hammer::chain {

namespace {
std::optional<std::int64_t> parse_int(const std::string& s) {
  std::int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}
}  // namespace

MeepoSim::MeepoSim(ChainConfig config, std::shared_ptr<util::Clock> clock)
    : Blockchain(std::move(config), std::move(clock)) {
  HAMMER_CHECK_MSG(config_.num_shards >= 2, "MeepoSim needs at least 2 shards");
  relay_queues_.resize(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    relay_mu_.push_back(std::make_unique<std::mutex>());
  }
}

MeepoSim::~MeepoSim() { stop(); }

void MeepoSim::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    epoch_threads_.emplace_back([this, s] { epoch_loop(s); });
  }
}

void MeepoSim::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  for (auto& pool : pools_) pool->close();
  for (auto& t : epoch_threads_) {
    if (t.joinable()) t.join();
  }
  epoch_threads_.clear();
}

void MeepoSim::with_state(std::uint32_t shard, const std::function<void(StateStore&)>& fn) {
  HAMMER_CHECK(shard < config_.num_shards);
  fn(*states_[shard]);
}

std::size_t MeepoSim::relay_backlog(std::uint32_t shard) const {
  HAMMER_CHECK(shard < config_.num_shards);
  std::scoped_lock lock(*relay_mu_[shard]);
  return relay_queues_[shard].size();
}

json::Value MeepoSim::stats() const {
  json::Value v = Blockchain::stats();
  json::Array backlog;
  backlog.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    backlog.push_back(json::Value(static_cast<std::int64_t>(relay_backlog(s))));
  }
  v.as_object()["cross_shard"] = cross_shard_.load();
  v.as_object()["relay_backlog"] = json::Value(std::move(backlog));
  return v;
}

void MeepoSim::enqueue_relay(std::uint32_t shard, RelayCredit credit) {
  std::scoped_lock lock(*relay_mu_[shard]);
  relay_queues_[shard].push_back(std::move(credit));
}

void MeepoSim::apply_relays(std::uint32_t shard) {
  std::deque<RelayCredit> credits;
  {
    std::scoped_lock lock(*relay_mu_[shard]);
    credits.swap(relay_queues_[shard]);
  }
  StateStore& state = *states_[shard];
  for (const RelayCredit& credit : credits) {
    auto current = state.get(credit.key);
    std::int64_t balance = current ? parse_int(current->value).value_or(0) : 0;
    state.put(credit.key, std::to_string(balance + credit.amount));
  }
}

TxReceipt MeepoSim::execute_sharded(std::uint32_t shard, const Transaction& tx,
                                    std::string tx_id) {
  TxReceipt receipt;
  receipt.tx_id = std::move(tx_id);

  // Cross-shard transfer detection (smallbank payments / token transfers).
  std::string to;
  if (tx.contract == "smallbank" && tx.op == "send_payment" && tx.args.contains("to")) {
    to = tx.args.at("to").as_string();
  } else if (tx.contract == "token" && tx.op == "transfer" && tx.args.contains("to")) {
    to = tx.args.at("to").as_string();
  }

  if (!to.empty() && shard_for_sender(to) != shard) {
    // Cross-call: debit locally, relay the credit to the owning shard.
    cross_shard_.fetch_add(1, std::memory_order_relaxed);
    std::string from = tx.args.at("from").as_string();
    std::int64_t amount = tx.args.at("amount").as_int();
    std::string from_key;
    std::string to_key;
    if (tx.contract == "smallbank") {
      from_key = "sb:c:" + from;
      to_key = "sb:c:" + to;
    } else {
      std::string symbol = tx.args.at("symbol").as_string();
      from_key = "tok:" + symbol + ":" + from;
      to_key = "tok:" + symbol + ":" + to;
    }
    StateStore& state = *states_[shard];
    auto current = state.get(from_key);
    std::int64_t balance = current ? parse_int(current->value).value_or(0) : 0;
    if (!current) {
      receipt.status = TxStatus::kInvalid;
      receipt.detail = "unknown sender account " + from;
      return receipt;
    }
    if (balance < amount || amount < 0) {
      receipt.status = TxStatus::kInvalid;
      receipt.detail = "insufficient balance for cross-shard transfer";
      return receipt;
    }
    state.put(from_key, std::to_string(balance - amount));
    enqueue_relay(shard_for_sender(to), RelayCredit{to_key, amount, receipt.tx_id});
    receipt.status = TxStatus::kCommitted;
    receipt.detail = "cross-shard";
    return receipt;
  }

  // Intra-shard: ordinary order-execute.
  auto [rw_set, result] = execute(*states_[shard], tx);
  if (result.ok) {
    states_[shard]->apply(rw_set);
    receipt.status = TxStatus::kCommitted;
  } else {
    receipt.status = TxStatus::kInvalid;
    receipt.detail = result.error;
  }
  return receipt;
}

void MeepoSim::epoch_loop(std::uint32_t shard) {
  const auto epoch = std::chrono::milliseconds(config_.block_interval_ms);
  util::TimePoint next_epoch = clock_->now() + epoch;
  while (running_.load()) {
    clock_->sleep_until(next_epoch);
    next_epoch += epoch;

    // Meepo applies cross-epoch relays at epoch start, before local txs.
    apply_relays(shard);

    std::vector<PooledTx> txs = pools_[shard]->drain(config_.max_block_txs);
    if (txs.empty()) continue;
    maybe_stall_block_production();

    Block block;
    block.header.shard = shard;
    block.receipts.reserve(txs.size());
    for (PooledTx& entry : txs) {
      block.receipts.push_back(execute_sharded(shard, entry.tx, std::move(entry.id)));
    }
    charge_commit_cost(txs.size());

    std::shared_ptr<const Block> parent = ledgers_[shard]->latest();
    block.header.parent_hash = parent ? parent->header.hash() : std::string(64, '0');
    block.header.merkle_root = Block::compute_merkle_root(block.receipts);
    block.header.producer = "shard-" + std::to_string(shard);
    block.header.timestamp_us = clock_->now_us();
    ledgers_[shard]->append(std::move(block));
  }
}

}  // namespace hammer::chain
