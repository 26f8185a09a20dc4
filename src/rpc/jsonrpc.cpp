#include "rpc/jsonrpc.hpp"

#include <algorithm>

#include "rpc/api.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::rpc {

void throw_client_error(int code, const std::string& message) {
  if (code == kServerError) throw RejectedError(message);
  throw RpcError(code, message);
}

void throw_client_error(const RpcError& error) {
  if (error.code() == kServerError) throw RejectedError(error.what());
  throw error;
}

const json::Value& BatchReply::take() const {
  if (!ok()) throw_client_error(error_code, error_message);
  return result;
}

BatchReply to_batch_reply(json::Value response) {
  BatchReply reply;
  if (!response.is_object()) {
    reply.error_code = kParseError;
    reply.error_message = "RPC response is not an object";
    return reply;
  }
  json::Object& envelope = response.as_object();
  if (auto err = envelope.find("error"); err != envelope.end()) {
    reply.error_code = static_cast<int>(err->second.get_int("code", kInternalError));
    if (reply.error_code == 0) reply.error_code = kInternalError;
    reply.error_message = err->second.get_string("message", "unknown error");
    return reply;
  }
  auto result = envelope.find("result");
  if (result == envelope.end()) {
    reply.error_code = kParseError;
    reply.error_message = "RPC response lacks result and error";
    return reply;
  }
  reply.result = std::move(result->second);
  return reply;
}

namespace {
// Whether response entry `entry` carries the integer id `id`.
bool answers(const json::Value& entry, std::uint64_t id) {
  if (!entry.is_object()) return false;
  const json::Object& envelope = entry.as_object();
  auto it = envelope.find("id");
  return it != envelope.end() && it->second.is_int() &&
         static_cast<std::uint64_t>(it->second.as_int()) == id;
}
}  // namespace

std::vector<BatchReply> match_batch_replies(json::Value response,
                                            const std::vector<std::uint64_t>& ids) {
  std::vector<BatchReply> out(ids.size());
  if (!response.is_array()) {
    // Whole-batch failure (e.g. the server judged the batch invalid): every
    // entry carries the same error.
    BatchReply shared = to_batch_reply(std::move(response));
    for (BatchReply& r : out) r = shared;
    return out;
  }
  json::Array& entries = response.as_array();
  // Servers reply in request order, so entry i normally answers ids[i];
  // otherwise scan (batches are small).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::size_t at = i;
    if (at >= entries.size() || !answers(entries[at], ids[i])) {
      at = 0;
      while (at < entries.size() && !answers(entries[at], ids[i])) ++at;
    }
    if (at == entries.size()) {
      out[i].error_code = kInternalError;
      out[i].error_message = "no response for batch id " + std::to_string(ids[i]);
    } else {
      out[i] = to_batch_reply(std::move(entries[at]));
    }
  }
  return out;
}

void Dispatcher::register_method(const std::string& name, Handler handler) {
  std::scoped_lock lock(mu_);
  HAMMER_CHECK_MSG(methods_.emplace(name, std::move(handler)).second,
                   "duplicate RPC method " + name);
}

bool Dispatcher::has_method(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return methods_.count(name) > 0;
}

std::vector<std::string> Dispatcher::method_names() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(methods_.size());
  for (const auto& [name, handler] : methods_) {
    (void)handler;
    out.push_back(name);
  }
  return out;
}

CallOutcome Dispatcher::invoke(std::string_view method, const json::Value& params) const {
  CallOutcome outcome;
  try {
    // Methods are never unregistered and map nodes never move, so the
    // handler is called through a pointer taken under the lock: no
    // std::function copy (a heap allocation for a large capture) per call.
    const Handler* handler = nullptr;
    {
      std::scoped_lock lock(mu_);
      auto it = methods_.find(method);
      if (it == methods_.end()) {
        outcome.error_code = kMethodNotFound;
        // A method from a namespace with no registered methods at all is
        // almost certainly a typo'd (or version-skewed) namespace; report
        // it by name, the same shape deployment uses for unknown spec keys.
        std::string_view ns = method_namespace(method);
        bool namespace_known =
            std::any_of(methods_.begin(), methods_.end(), [ns](const auto& entry) {
              return method_namespace(entry.first) == ns;
            });
        outcome.error_message =
            namespace_known
                ? "unknown method " + std::string(method)
                : "unknown method namespace '" + std::string(ns) + "' in method '" +
                      std::string(method) + "'";
        return outcome;
      }
      handler = &it->second;
    }
    if (telemetry::trace_active()) {
      // First traced call of the frame flushes the pending queue-wait span;
      // then the handler runs under its own span so chain-level spans
      // opened inside it parent correctly.
      telemetry::emit_queue_wait_span();
      telemetry::ScopedSpan span(telemetry::SpanKind::kHandler, std::string(method));
      outcome.result = (*handler)(params);
    } else {
      outcome.result = (*handler)(params);
    }
  } catch (const RejectedError& e) {
    outcome.error_code = kServerError;
    outcome.error_message = e.what();
  } catch (const NotFoundError& e) {
    outcome.error_code = kInvalidParams;
    outcome.error_message = e.what();
  } catch (const ParseError& e) {
    outcome.error_code = kInvalidParams;
    outcome.error_message = e.what();
  } catch (const std::exception& e) {
    HLOG_WARN("rpc") << "handler raised: " << e.what();
    outcome.error_code = kInternalError;
    outcome.error_message = e.what();
  }
  return outcome;
}

CallOutcome Dispatcher::resolve(json::Value& request, json::Value& id) const {
  auto reject = [](int code, std::string message) {
    return CallOutcome{json::Value(), code, std::move(message)};
  };
  try {
    if (!request.is_object()) return reject(kInvalidRequest, "request must be an object");
    json::Object& envelope = request.as_object();
    if (auto it = envelope.find("id"); it != envelope.end()) id = std::move(it->second);
    auto version = envelope.find("jsonrpc");
    if (version == envelope.end() || version->second.as_string() != "2.0") {
      return reject(kInvalidRequest, "missing jsonrpc: \"2.0\"");
    }
    auto method = envelope.find("method");
    if (method == envelope.end() || !method->second.is_string()) {
      return reject(kInvalidRequest, "missing method");
    }
    // The request is ours: its params move to the handler, uncopied.
    json::Value params;
    if (auto it = envelope.find("params"); it != envelope.end()) params = std::move(it->second);
    // JSON-codec trace propagation: a `_trace` params member carries the
    // context. It is stripped before the handler sees the params, so traced
    // and untraced calls observe identical arguments.
    telemetry::TraceContext trace;
    if (params.is_object()) {
      json::Object& members = params.as_object();
      if (auto t = members.find("_trace"); t != members.end()) {
        trace.trace_id = static_cast<std::uint64_t>(t->second.get_int("t", 0));
        trace.span_id = static_cast<std::uint64_t>(t->second.get_int("s", 0));
        members.erase(t);
      }
    }
    if (trace.sampled()) {
      telemetry::ScopedTrace scope(trace);
      return invoke(method->second.as_string(), params);
    }
    return invoke(method->second.as_string(), params);
  } catch (const std::exception& e) {
    HLOG_WARN("rpc") << "dispatch raised: " << e.what();
    return reject(kInternalError, e.what());
  }
}

json::Value Dispatcher::dispatch(json::Value request) const {
  json::Value id;  // null until we can extract one
  CallOutcome outcome = resolve(request, id);
  if (!outcome.ok()) return make_error_response(id, outcome.error_code, outcome.error_message);
  return make_result_response(id, std::move(outcome.result));
}

namespace {
// Response writers: the bytes equal make_result_response(...).dump() and
// make_error_response(...).dump() (keys in sorted order).
void write_result_response(std::string& out, const json::Value& id, const json::Value& result) {
  out += "{\"id\":";
  id.dump_into(out);
  out += ",\"jsonrpc\":\"2.0\",\"result\":";
  result.dump_into(out);
  out += '}';
}

void write_error_response(std::string& out, const json::Value& id, int code,
                          std::string_view message) {
  out += "{\"error\":{\"code\":";
  out += std::to_string(code);
  out += ",\"message\":";
  json::write_escaped(out, message);
  out += "},\"id\":";
  id.dump_into(out);
  out += ",\"jsonrpc\":\"2.0\"}";
}
}  // namespace

std::string Dispatcher::dispatch_text(std::string_view request_text) const {
  std::string out;
  dispatch_text_into(request_text, out);
  return out;
}

void Dispatcher::dispatch_text_into(std::string_view request_text, std::string& out) const {
  json::Value request;
  try {
    request = json::Value::parse(request_text);
  } catch (const ParseError& e) {
    write_error_response(out, json::Value(), kParseError, e.what());
    return;
  }
  // Each envelope is resolved in place (its params move to the handler)
  // and its response written straight into `out`.
  auto respond = [this, &out](json::Value& envelope) {
    json::Value id;  // null until resolve() extracts one
    CallOutcome outcome = resolve(envelope, id);
    if (outcome.ok()) {
      write_result_response(out, id, outcome.result);
    } else {
      write_error_response(out, id, outcome.error_code, outcome.error_message);
    }
  };
  if (!request.is_array()) {
    respond(request);
    return;
  }
  json::Array& entries = request.as_array();
  if (entries.empty()) {
    write_error_response(out, json::Value(), kInvalidRequest, "empty batch");
    return;
  }
  // Each entry dispatches independently; a malformed or failing entry
  // yields its own error response without poisoning its siblings.
  out += '[';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    respond(entries[i]);
  }
  out += ']';
}

void write_request(std::string& out, std::uint64_t id, std::string_view method,
                   const json::Value& params) {
  out += "{\"id\":";
  out += std::to_string(static_cast<std::int64_t>(id));
  out += ",\"jsonrpc\":\"2.0\",\"method\":";
  json::write_escaped(out, method);
  out += ",\"params\":";
  params.dump_into(out);
  out += '}';
}

json::Value make_request(std::uint64_t id, const std::string& method, json::Value params) {
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = static_cast<std::int64_t>(id);
  obj["method"] = method;
  obj["params"] = std::move(params);
  return json::Value(std::move(obj));
}

json::Value make_result_response(const json::Value& id, json::Value result) {
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = id;
  obj["result"] = std::move(result);
  return json::Value(std::move(obj));
}

json::Value make_error_response(const json::Value& id, int code, const std::string& message) {
  json::Object err;
  err["code"] = code;
  err["message"] = message;
  json::Object obj;
  obj["jsonrpc"] = "2.0";
  obj["id"] = id;
  obj["error"] = json::Value(std::move(err));
  return json::Value(std::move(obj));
}

json::Value take_result(json::Value response) {
  if (!response.is_object()) throw ParseError("RPC response is not an object");
  json::Object& envelope = response.as_object();
  if (auto err = envelope.find("error"); err != envelope.end()) {
    throw RpcError(static_cast<int>(err->second.get_int("code", kInternalError)),
                   err->second.get_string("message", "unknown error"));
  }
  auto result = envelope.find("result");
  if (result == envelope.end()) throw ParseError("RPC response lacks result and error");
  return std::move(result->second);
}

std::future<json::Value> Channel::call_async(const std::string& method, json::Value params,
                                             const CallOptions& opts) {
  std::promise<json::Value> promise;
  try {
    promise.set_value(call(method, std::move(params), opts));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.get_future();
}

std::vector<BatchReply> Channel::call_batch(const std::vector<BatchCall>& calls,
                                            const CallOptions& opts) {
  std::vector<BatchReply> out;
  out.reserve(calls.size());
  for (const BatchCall& c : calls) {
    BatchReply reply;
    try {
      reply.result = call(c.method, c.params, opts);
    } catch (const RpcError& e) {
      reply.error_code = e.code();
      reply.error_message = e.what();
    }
    out.push_back(std::move(reply));
  }
  return out;
}

InProcChannel::InProcChannel(std::shared_ptr<const Dispatcher> dispatcher)
    : dispatcher_(std::move(dispatcher)) {
  HAMMER_CHECK(dispatcher_ != nullptr);
}

json::Value InProcChannel::call(const std::string& method, json::Value params,
                                const CallOptions& opts) {
  std::uint64_t id;
  {
    std::scoped_lock lock(mu_);
    id = next_id_++;
  }
  // Round-trip through text so the in-process path exercises exactly the
  // same (de)serialization as the TCP path. Tracing installs the context
  // directly (dispatch runs on the calling thread) instead of rewriting the
  // request, so traced and untraced wire bytes stay identical.
  std::string request_text;
  write_request(request_text, id, method, params);
  std::string response_text;
  if (opts.trace.sampled()) {
    telemetry::ScopedTrace scope(opts.trace);
    response_text = dispatcher_->dispatch_text(request_text);
  } else {
    response_text = dispatcher_->dispatch_text(request_text);
  }
  return take_result(json::Value::parse(response_text));
}

std::vector<BatchReply> InProcChannel::call_batch(const std::vector<BatchCall>& calls,
                                                  const CallOptions& opts) {
  if (calls.empty()) return {};
  std::vector<std::uint64_t> ids(calls.size());
  {
    std::scoped_lock lock(mu_);
    for (std::uint64_t& id : ids) id = next_id_++;
  }
  std::string request_text = "[";
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (i > 0) request_text += ',';
    write_request(request_text, ids[i], calls[i].method, calls[i].params);
  }
  request_text += ']';
  std::string response_text;
  if (opts.trace.sampled()) {
    telemetry::ScopedTrace scope(opts.trace);
    response_text = dispatcher_->dispatch_text(request_text);
  } else {
    response_text = dispatcher_->dispatch_text(request_text);
  }
  return match_batch_replies(json::Value::parse(response_text), ids);
}

}  // namespace hammer::rpc
