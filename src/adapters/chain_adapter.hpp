// Client-side view of a System Under Test.
//
// ChainAdapter is the only interface Hammer's drivers use, so supporting a
// new blockchain means implementing the generic RPC surface
// (chain.info/submit/height/block/query/stats/state_digest/receipts) —
// regardless of the SUT's architecture (sharded or not) or implementation
// language. This is the paper's "set of generic remote procedure call
// interfaces".
//
// Submission comes in two shapes: submit() for one transaction per round
// trip (a thin throwing wrapper over a batch of one — server-error mapping
// lives in the batch path only), and submit_batch() which coalesces N
// transactions into a single JSON-RPC batch frame (one round trip) with
// per-transaction outcomes — the transport-level lever behind
// DriverOptions::submit_batch_size.
//
// Every RPC the adapter issues runs under one rpc::ClientConfig: a per-call
// deadline (rpc::CallOptions) and a rpc::RetryPolicy with jittered,
// exponentially backed-off retries. The default config is one attempt, so
// an un-configured adapter behaves exactly like the pre-retry API.
// Resubmission is idempotency-aware: after an in-doubt failure (transport
// break, timeout) submit_batch reconciles through chain.receipts and only
// resends entries not already on chain — see DESIGN.md §8.
//
// Shard parameter convention: every shard-scoped read (height, block,
// query, state_digest) takes the shard as its FIRST parameter, always
// explicitly — no defaulted shards — so call sites against sharded SUTs
// always name the shard they are reading.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "rpc/client_config.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/retry.hpp"

namespace hammer::adapters {

struct ChainInfo {
  std::string name;
  std::string kind;
  std::uint32_t shards = 1;
};

class ChainAdapter {
 public:
  // One config for the whole call surface (deadline, retry policy, target
  // index; the codec/timeout members were already consumed by whoever built
  // `channel`).
  explicit ChainAdapter(std::shared_ptr<rpc::Channel> channel,
                        const rpc::ClientConfig& config = {});

  // Fetched once and cached; sharded SUTs report their shard count here so
  // the driver can poll every shard's chain.
  const ChainInfo& info() const { return info_; }
  const rpc::ClientConfig& config() const { return config_; }
  std::size_t target_index() const { return config_.target_index; }

  // The channel this adapter issues calls over (e.g. for wire-codec
  // diagnostics: TcpChannel::codec() after negotiation).
  const std::shared_ptr<rpc::Channel>& channel() const { return channel_; }

  // RPC attempts beyond the first, over this adapter's lifetime. The driver
  // differences this across a run into RunResult::retries.
  std::uint64_t retries() const { return retryer_.retry_count(); }

  // Submits a signed transaction; returns its id. Overload and signature
  // failures surface as RejectedError (mapped from JSON-RPC server errors
  // by rpc::throw_client_error); transport problems as TransportError.
  std::string submit(const chain::Transaction& tx);

  // Outcome of one entry of a batched submission. ok() mirrors what the
  // single-call path expresses by (not) throwing RejectedError.
  struct SubmitResult {
    std::string tx_id;   // set when the SUT accepted the transaction
    std::string error;   // rejection/protocol reason otherwise
    int error_code = 0;  // JSON-RPC error code behind `error` (0 when ok)
    bool ok() const { return error.empty(); }
  };

  // Submits N transactions in one batch round trip; results align with
  // `txs` by index. With retries enabled, in-doubt failures reconcile
  // through chain.receipts before resending (entries already on chain are
  // reported accepted, not submitted twice) and — when
  // RetryPolicy::on_rejected — rejected entries are resubmitted. Throws
  // TransportError only once the policy is exhausted. A sampled `trace`
  // tags the whole batch frame (one trace per frame — see
  // telemetry/span.hpp).
  std::vector<SubmitResult> submit_batch(const std::vector<chain::Transaction>& txs,
                                         const telemetry::TraceContext& trace = {});

  // The peer-clock offset the transport measured at connect (identity for
  // in-process channels); the trace merger uses it to shift SUT span
  // timestamps into the driver's clock domain.
  telemetry::ClockOffset clock_offset() const { return channel_->clock_offset(); }

  // Drains the SUT's recorded spans (telemetry.spans); empty against peers
  // predating the method.
  std::vector<telemetry::Span> fetch_spans();

  // Shard-ownership query (chain.shard_for): the shard holding `sender`'s
  // hot state — the SUT's own routing function, exposed so a shard-affine
  // client can agree with the chain instead of guessing its hash.
  std::uint32_t shard_for(const std::string& sender);

  // Endpoint identity (endpoint.info): {endpoint, endpoints, shards} — which
  // RPC surface this adapter speaks to and the shard set that surface owns.
  json::Value endpoint_info();

  std::uint64_t height(std::uint32_t shard);
  chain::Block block(std::uint32_t shard, std::uint64_t height);
  json::Value query(std::uint32_t shard, const std::string& contract, const std::string& op,
                    json::Value args);
  json::Value stats();
  std::string state_digest(std::uint32_t shard);

  // Transaction status polling (interactive-testing style). nullopt while
  // the transaction has not yet appeared in a block.
  struct ReceiptInfo {
    std::uint64_t height = 0;
    chain::TxStatus status = chain::TxStatus::kCommitted;
  };

  // Polls many transactions with one chain.receipts RPC; the result aligns
  // with `tx_ids` by index (in-doubt submit reconciliation uses it).
  // `fault_keys` (rpc::CallOptions::fault_keys) are the polled txs' keys.
  // Interactive mode deliberately polls through tx_receipt instead: one RPC
  // per pending transaction, the per-tx cost of Caliper-style listening.
  std::vector<std::optional<ReceiptInfo>> receipts(
      const std::vector<std::string>& tx_ids, std::span<const std::uint64_t> fault_keys = {});

  // Single-transaction convenience wrapper over receipts().
  std::optional<ReceiptInfo> tx_receipt(const std::string& tx_id);

 private:
  json::Value call(const std::string& method, json::Value params,
                   std::span<const std::uint64_t> fault_keys = {});

  // Drops entries already on chain from `open` (marking them accepted in
  // `out`) after an in-doubt submit failure; returns the indices still to
  // resend. Unreachable receipts mean "resend everything" — duplicates are
  // absorbed downstream (pool dedup / TaskProcessor duplicate counting).
  std::vector<std::size_t> reconcile_in_doubt(const std::vector<chain::Transaction>& txs,
                                              const std::vector<std::size_t>& open,
                                              std::span<const std::uint64_t> keys,
                                              std::vector<SubmitResult>& out);

  std::shared_ptr<rpc::Channel> channel_;
  rpc::ClientConfig config_;
  rpc::Retryer retryer_;
  ChainInfo info_;
};

// Factory used by examples/benches/tests so call sites stop hand-wiring
// TcpChannel construction against deployed endpoints. The host/port form
// threads the config into the TcpChannel it opens (codec preference,
// timeout) as well as into the adapter (deadline, retry policy).
std::shared_ptr<ChainAdapter> make_adapter(std::shared_ptr<rpc::Channel> channel,
                                           const rpc::ClientConfig& config = {});
std::shared_ptr<ChainAdapter> make_adapter(const std::string& host, std::uint16_t port,
                                           const rpc::ClientConfig& config = {});

}  // namespace hammer::adapters
