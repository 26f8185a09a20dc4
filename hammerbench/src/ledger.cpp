#include "ledger.hpp"

#include <chrono>
#include <memory>

#include "alloc_hook.hpp"
#include "chain/contracts.hpp"
#include "chain/state.hpp"
#include "core/metrics.hpp"
#include "core/signing.hpp"
#include "core/task_processor.hpp"
#include "kvstore/kvstore.hpp"
#include "minisql/database.hpp"
#include "rpc/wire/codec.hpp"
#include "workload/generator.hpp"

namespace hammer::bench {

namespace {

struct Cost {
  std::int64_t ns = 0;
  AllocCount allocs;
};

// Runs `fn` once on this thread; returns its wall time and allocations.
template <class Fn>
Cost measure(Fn&& fn) {
  const AllocCount a0 = thread_allocs();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return Cost{std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
              thread_allocs() - a0};
}

class Rows {
 public:
  explicit Rows(std::size_t per) : per_(static_cast<double>(per)) {}

  void ns(const std::string& layer, const Cost& c) {
    add(layer + "_ns", static_cast<double>(c.ns) / per_, "ns");
  }
  void allocs(const std::string& layer, const Cost& c) {
    add(layer + "_allocs", static_cast<double>(c.allocs.allocs) / per_, "count");
  }
  void bytes(const std::string& name, double total) { add(name, total / per_, "B"); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }

  std::vector<Metric> metrics;

 private:
  double per_;
};

}  // namespace

LedgerResult run_ledger(const workload::WorkloadProfile& profile,
                        const std::vector<std::string>& accounts, std::size_t count,
                        std::size_t block_txs) {
  LedgerResult out;
  Rows rows(count);
  auto violation = [&out](std::string what) { out.violations.push_back("ledger: " + what); };

  // generate
  std::unique_ptr<workload::Generator> generator = workload::make_generator(profile, accounts);
  std::vector<chain::Transaction> txs;
  txs.reserve(count);
  Cost c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) txs.push_back(generator->next());
  });
  rows.ns("workload.generate", c);
  rows.allocs("workload.generate", c);

  // sign (key derivation is set-up, as in the paper's memoized key cache)
  core::KeyCache keys;
  keys.warm(accounts);
  c = measure([&] {
    for (chain::Transaction& tx : txs) {
      tx.server_id = "server-0";
      tx.sign_with(keys.get(tx.sender));
    }
  });
  rows.ns("signing.sign", c);
  rows.allocs("signing.sign", c);

  // id
  std::vector<std::string> ids(count);
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) ids[i] = txs[i].compute_id();
  });
  rows.ns("chain.id", c);
  rows.allocs("chain.id", c);

  // json encode / decode
  std::vector<std::string> texts(count);
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) texts[i] = txs[i].to_json().dump();
  });
  double text_bytes = 0;
  for (const std::string& t : texts) text_bytes += static_cast<double>(t.size());
  rows.ns("json.encode", c);
  rows.bytes("json.encode_bytes", text_bytes);
  rows.allocs("json.encode", c);
  std::size_t decode_mismatches = 0;
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) {
      chain::Transaction back = chain::Transaction::from_json(json::Value::parse(texts[i]));
      if (back.nonce != txs[i].nonce) ++decode_mismatches;
    }
  });
  rows.ns("json.decode", c);
  rows.allocs("json.decode", c);
  if (decode_mismatches > 0) violation("json round trip changed transactions");

  // wire encode / decode (of the same value trees the binary codec carries)
  std::vector<json::Value> values(count);
  for (std::size_t i = 0; i < count; ++i) values[i] = txs[i].to_json();
  std::vector<std::string> frames(count);
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) rpc::wire::encode_value(frames[i], values[i]);
  });
  double frame_bytes = 0;
  for (const std::string& f : frames) frame_bytes += static_cast<double>(f.size());
  rows.ns("wire.encode", c);
  rows.bytes("wire.encode_bytes", frame_bytes);
  std::size_t wire_mismatches = 0;
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const char* p = frames[i].data();
      json::Value back = rpc::wire::decode_value(p, p + frames[i].size());
      if (p != frames[i].data() + frames[i].size() || !back.is_object()) ++wire_mismatches;
    }
  });
  rows.ns("wire.decode", c);
  if (wire_mismatches > 0) violation("wire round trip did not consume its frames");

  // verify
  std::size_t bad_signatures = 0;
  c = measure([&] {
    for (const chain::Transaction& tx : txs) {
      if (!tx.verify_signature()) ++bad_signatures;
    }
  });
  rows.ns("chain.verify", c);
  if (bad_signatures > 0) {
    violation(std::to_string(bad_signatures) + " signatures failed to verify");
  }

  // execute
  chain::StateStore state;
  for (const std::string& account : accounts) {
    state.put("sb:c:" + account, "1000000");
    state.put("sb:s:" + account, "1000000");
  }
  std::shared_ptr<const chain::ContractRegistry> registry = chain::ContractRegistry::standard();
  std::vector<chain::TxReceipt> receipts(count);
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) {
      chain::TxContext ctx(state);
      chain::ExecResult r = registry->get(txs[i].contract).execute(txs[i].op, txs[i].args, ctx);
      if (r.ok) state.apply(ctx.take_rw_set());
      receipts[i].tx_id = ids[i];
      receipts[i].status = r.ok ? chain::TxStatus::kCommitted : chain::TxStatus::kInvalid;
    }
  });
  rows.ns("chain.execute", c);

  // seal
  std::vector<std::vector<chain::TxReceipt>> blocks;
  for (std::size_t i = 0; i < count; i += block_txs) {
    const std::size_t end = std::min(count, i + block_txs);
    blocks.emplace_back(receipts.begin() + static_cast<std::ptrdiff_t>(i),
                        receipts.begin() + static_cast<std::ptrdiff_t>(end));
  }
  std::size_t empty_roots = 0;
  c = measure([&] {
    for (const auto& block : blocks) {
      if (chain::Block::compute_merkle_root(block).empty()) ++empty_roots;
    }
  });
  rows.ns("chain.seal", c);
  if (empty_roots > 0) violation("merkle root empty");

  // track (register) and detect (on_block)
  core::TaskProcessor::Options tp_options;
  tp_options.expected_txs = count;
  core::TaskProcessor processor(tp_options);
  c = measure([&] {
    for (std::size_t i = 0; i < count; ++i) {
      processor.register_tx(ids[i], static_cast<std::int64_t>(i), txs[i].client_id,
                            txs[i].server_id, "ledger", txs[i].contract, i);
    }
  });
  rows.ns("task_processor.register", c);
  rows.allocs("task_processor.register", c);
  rows.bytes("task_processor.register_bytes", static_cast<double>(c.allocs.bytes));
  std::size_t matched = 0;
  c = measure([&] {
    std::int64_t t = static_cast<std::int64_t>(count);
    for (const auto& block : blocks) matched += processor.on_block(t++, block).matched;
  });
  rows.ns("task_processor.on_block", c);
  rows.add("task_processor.probe_steps_per_tx",
           static_cast<double>(processor.index_probe_steps()) / static_cast<double>(count),
           "count");
  if (matched != count) {
    violation("on_block matched " + std::to_string(matched) + " of " + std::to_string(count));
  }

  // commit: write-behind cache -> SQL, drained synchronously on this thread
  std::vector<core::TxRecord> records = processor.snapshot();
  core::MetricsOptions metrics_options;
  metrics_options.write_behind = true;
  core::MetricsPipeline pipeline(std::make_shared<kvstore::KvStore>(util::SteadyClock::shared()),
                                 std::make_shared<minisql::Database>(), metrics_options);
  std::size_t committed_rows = 0;
  c = measure([&] {
    pipeline.push_records(records);
    committed_rows = pipeline.flush();
  });
  rows.ns("metrics.commit", c);
  rows.allocs("metrics.commit", c);
  std::size_t latency_rows = 0;
  c = measure([&] {
    (void)pipeline.query_tps();
    latency_rows = pipeline.query_latencies().rows.size();
  });
  rows.add("metrics.table2_query_ms", static_cast<double>(c.ns) / 1e6, "ms");
  if (committed_rows != count || latency_rows != count) {
    violation("metrics committed " + std::to_string(committed_rows) + " rows, Table II read " +
              std::to_string(latency_rows) + ", expected " + std::to_string(count));
  }

  out.metrics = std::move(rows.metrics);
  return out;
}

}  // namespace hammer::bench
