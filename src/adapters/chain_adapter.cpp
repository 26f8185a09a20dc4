#include "adapters/chain_adapter.hpp"

#include <numeric>

#include "rpc/tcp.hpp"
#include "telemetry/endpoint.hpp"
#include "util/errors.hpp"

namespace hammer::adapters {

ChainAdapter::ChainAdapter(std::shared_ptr<rpc::Channel> channel,
                           const rpc::ClientConfig& config)
    : channel_(std::move(channel)),
      config_(config),
      retryer_(config_.retry) {
  HAMMER_CHECK(channel_ != nullptr);
  HAMMER_CHECK(config_.retry.max_attempts >= 1);
  json::Value v = call("chain.info", json::Value());
  info_.name = v.at("name").as_string();
  info_.kind = v.at("kind").as_string();
  info_.shards = static_cast<std::uint32_t>(v.get_int("shards", 1));
}

json::Value ChainAdapter::call(const std::string& method, json::Value params,
                               std::span<const std::uint64_t> fault_keys) {
  rpc::CallOptions opts = config_.call;
  opts.fault_keys = fault_keys;
  return retryer_.run([&]() -> json::Value {
    json::Value attempt_params = params;  // each attempt gets its own copy
    try {
      return channel_->call(method, std::move(attempt_params), opts);
    } catch (const rpc::RpcError& e) {
      rpc::throw_client_error(e);  // kServerError -> RejectedError, rest rethrows
    }
  });
}

std::string ChainAdapter::submit(const chain::Transaction& tx) {
  SubmitResult result = submit_batch({tx}).front();
  if (!result.ok()) {
    rpc::throw_client_error(result.error_code == 0 ? rpc::kServerError : result.error_code,
                            result.error);
  }
  return result.tx_id;
}

std::vector<ChainAdapter::SubmitResult> ChainAdapter::submit_batch(
    const std::vector<chain::Transaction>& txs, const telemetry::TraceContext& trace) {
  std::vector<SubmitResult> out(txs.size());
  if (txs.empty()) return out;

  const rpc::RetryPolicy& policy = config_.retry;
  rpc::CallOptions call_opts = config_.call;
  call_opts.trace = trace;  // unsampled by default: one branch in the transport
  std::vector<std::size_t> open(txs.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  for (std::uint32_t attempt = 1;; ++attempt) {
    std::vector<rpc::BatchCall> calls;
    std::vector<std::uint64_t> keys;
    calls.reserve(open.size());
    keys.reserve(open.size());
    for (std::size_t idx : open) {
      json::Object params;
      params["tx"] = txs[idx].to_json();
      calls.push_back(rpc::BatchCall{"chain.submit", json::Value(std::move(params))});
      keys.push_back(txs[idx].fault_key());
    }
    call_opts.fault_keys = keys;
    std::vector<rpc::BatchReply> replies;
    try {
      replies = channel_->call_batch(calls, call_opts);
    } catch (const TransportError&) {
      // Timeout or connection break: the frame is IN DOUBT — any subset may
      // have reached the SUT.
      rpc::ErrorClass cls = rpc::classify_current_exception();
      if (attempt >= policy.max_attempts || !policy.retries(cls)) throw;
      retryer_.before_retry(attempt);
      // Idempotent-resubmission rule: entries already on chain were
      // accepted by the failed attempt; report them ok instead of
      // submitting them twice.
      open = reconcile_in_doubt(txs, open, keys, out);
      if (open.empty()) return out;
      continue;
    }
    HAMMER_CHECK(replies.size() == open.size());
    std::vector<std::size_t> rejected;
    for (std::size_t j = 0; j < replies.size(); ++j) {
      std::size_t idx = open[j];
      if (replies[j].ok()) {
        out[idx].tx_id = std::move(replies[j].result.at("tx_id").as_string());
        out[idx].error.clear();
        out[idx].error_code = 0;
      } else {
        out[idx].tx_id.clear();
        out[idx].error_code = replies[j].error_code;
        out[idx].error = replies[j].error_message.empty()
                             ? "rpc error " + std::to_string(replies[j].error_code)
                             : replies[j].error_message;
        // Only application-level rejections are retry candidates; protocol
        // errors would fail identically on every attempt.
        if (replies[j].error_code == rpc::kServerError) rejected.push_back(idx);
      }
    }
    if (policy.on_rejected && !rejected.empty() && attempt < policy.max_attempts) {
      // A rejected entry was NOT accepted, so resubmitting it is safe.
      retryer_.before_retry(attempt);
      open = std::move(rejected);
      continue;
    }
    return out;
  }
}

std::vector<std::size_t> ChainAdapter::reconcile_in_doubt(
    const std::vector<chain::Transaction>& txs, const std::vector<std::size_t>& open,
    std::span<const std::uint64_t> keys, std::vector<SubmitResult>& out) {
  // Ids are computed here, on the in-doubt path only: an accepted send
  // learns each id from the SUT's reply.
  std::vector<std::string> poll;
  poll.reserve(open.size());
  for (std::size_t idx : open) poll.push_back(txs[idx].compute_id());
  std::vector<std::optional<ReceiptInfo>> found;
  try {
    found = receipts(poll, keys);  // runs under the same retry policy
  } catch (const Error&) {
    // Receipts unreachable too: resend everything. A duplicate of an
    // accepted-but-unsealed entry lands twice in blocks and is counted once
    // by the TaskProcessor (duplicate absorption), so correctness holds.
    return open;
  }
  std::vector<std::size_t> still_open;
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (found[j]) {
      out[open[j]].tx_id = std::move(poll[j]);
      out[open[j]].error.clear();
      out[open[j]].error_code = 0;
    } else {
      still_open.push_back(open[j]);
    }
  }
  return still_open;
}

std::vector<telemetry::Span> ChainAdapter::fetch_spans() {
  return telemetry::fetch_spans(*channel_);
}

std::uint32_t ChainAdapter::shard_for(const std::string& sender) {
  return static_cast<std::uint32_t>(
      call("chain.shard_for", json::object({{"sender", sender}})).at("shard").as_int());
}

json::Value ChainAdapter::endpoint_info() { return call("endpoint.info", json::Value()); }

std::uint64_t ChainAdapter::height(std::uint32_t shard) {
  return static_cast<std::uint64_t>(
      call("chain.height", json::object({{"shard", static_cast<std::int64_t>(shard)}}))
          .at("height")
          .as_int());
}

chain::Block ChainAdapter::block(std::uint32_t shard, std::uint64_t height) {
  return chain::Block::from_json(
      call("chain.block", json::object({{"shard", static_cast<std::int64_t>(shard)},
                                        {"height", height}})));
}

json::Value ChainAdapter::query(std::uint32_t shard, const std::string& contract,
                                const std::string& op, json::Value args) {
  json::Object params;
  params["shard"] = static_cast<std::int64_t>(shard);
  params["contract"] = contract;
  params["op"] = op;
  params["args"] = std::move(args);
  return call("chain.query", json::Value(std::move(params)));
}

json::Value ChainAdapter::stats() { return call("chain.stats", json::Value()); }

std::vector<std::optional<ChainAdapter::ReceiptInfo>> ChainAdapter::receipts(
    const std::vector<std::string>& tx_ids, std::span<const std::uint64_t> fault_keys) {
  std::vector<std::optional<ReceiptInfo>> out(tx_ids.size());
  if (tx_ids.empty()) return out;
  json::Array ids;
  ids.reserve(tx_ids.size());
  for (const std::string& id : tx_ids) ids.push_back(json::Value(id));
  json::Value v =
      call("chain.receipts", json::object({{"tx_ids", json::Value(std::move(ids))}}),
           fault_keys);
  const json::Array& entries = v.at("receipts").as_array();
  HAMMER_CHECK(entries.size() == tx_ids.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!entries[i].get_bool("found", false)) continue;
    ReceiptInfo info;
    info.height = static_cast<std::uint64_t>(entries[i].at("height").as_int());
    info.status = static_cast<chain::TxStatus>(entries[i].at("status").as_int());
    out[i] = info;
  }
  return out;
}

std::optional<ChainAdapter::ReceiptInfo> ChainAdapter::tx_receipt(const std::string& tx_id) {
  return receipts({tx_id}).front();
}

std::string ChainAdapter::state_digest(std::uint32_t shard) {
  return call("chain.state_digest", json::object({{"shard", static_cast<std::int64_t>(shard)}}))
      .at("digest")
      .as_string();
}

std::shared_ptr<ChainAdapter> make_adapter(std::shared_ptr<rpc::Channel> channel,
                                           const rpc::ClientConfig& config) {
  return std::make_shared<ChainAdapter>(std::move(channel), config);
}

std::shared_ptr<ChainAdapter> make_adapter(const std::string& host, std::uint16_t port,
                                           const rpc::ClientConfig& config) {
  // The config reaches the transport too: the channel negotiates the wire
  // codec and uses the blocking-call timeout it carries.
  return make_adapter(std::make_shared<rpc::TcpChannel>(host, port, config), config);
}

}  // namespace hammer::adapters
