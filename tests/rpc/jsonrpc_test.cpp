#include "rpc/jsonrpc.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace hammer::rpc {
namespace {

std::shared_ptr<Dispatcher> make_dispatcher() {
  auto d = std::make_shared<Dispatcher>();
  d->register_method("echo", [](const json::Value& params) { return params; });
  d->register_method("add", [](const json::Value& params) {
    return json::Value(params.at("a").as_int() + params.at("b").as_int());
  });
  d->register_method("reject", [](const json::Value&) -> json::Value {
    throw RejectedError("nope");
  });
  d->register_method("crash", [](const json::Value&) -> json::Value {
    throw std::runtime_error("boom");
  });
  return d;
}

TEST(DispatcherTest, DispatchesRegisteredMethod) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "add", json::object({{"a", 2}, {"b", 3}})));
  EXPECT_EQ(take_result(resp).as_int(), 5);
}

TEST(DispatcherTest, MethodNotFound) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "nope", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kMethodNotFound);
}

TEST(DispatcherTest, RejectedErrorMapsToServerError) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "reject", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kServerError);
}

TEST(DispatcherTest, UnexpectedExceptionMapsToInternalError) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(1, "crash", json::Value()));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInternalError);
}

TEST(DispatcherTest, ParseErrorOnMalformedText) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("{not json"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kParseError);
}

TEST(DispatcherTest, MissingJsonrpcVersionRejected) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text(R"({"id":1,"method":"echo"})"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
}

TEST(DispatcherTest, NonObjectRequestRejected) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("42"));
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
}

TEST(BatchDispatchTest, EmptyBatchIsInvalidRequest) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("[]"));
  ASSERT_TRUE(resp.is_object());
  EXPECT_EQ(resp.at("error").at("code").as_int(), kInvalidRequest);
  EXPECT_TRUE(resp.at("id").is_null());
}

TEST(BatchDispatchTest, NonObjectEntriesGetPerEntryErrors) {
  auto d = make_dispatcher();
  json::Value resp = json::Value::parse(d->dispatch_text("[1,2,3]"));
  ASSERT_TRUE(resp.is_array());
  ASSERT_EQ(resp.as_array().size(), 3u);
  for (const json::Value& entry : resp.as_array()) {
    EXPECT_EQ(entry.at("error").at("code").as_int(), kInvalidRequest);
  }
}

TEST(BatchDispatchTest, MixedSuccessAndErrorEntries) {
  auto d = make_dispatcher();
  json::Array batch;
  batch.push_back(make_request(1, "add", json::object({{"a", 2}, {"b", 3}})));
  batch.push_back(make_request(2, "reject", json::Value()));
  batch.push_back(make_request(3, "missing_method", json::Value()));
  batch.push_back(json::Value("not a request"));
  json::Value resp = json::Value::parse(d->dispatch_text(json::Value(std::move(batch)).dump()));
  ASSERT_TRUE(resp.is_array());
  const json::Array& entries = resp.as_array();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].at("result").as_int(), 5);
  EXPECT_EQ(entries[0].at("id").as_int(), 1);
  EXPECT_EQ(entries[1].at("error").at("code").as_int(), kServerError);
  EXPECT_EQ(entries[1].at("id").as_int(), 2);
  EXPECT_EQ(entries[2].at("error").at("code").as_int(), kMethodNotFound);
  EXPECT_EQ(entries[3].at("error").at("code").as_int(), kInvalidRequest);
}

TEST(ClientErrorTest, ServerErrorMapsToRejected) {
  EXPECT_THROW(throw_client_error(kServerError, "pool full"), RejectedError);
  EXPECT_THROW(throw_client_error(kMethodNotFound, "nope"), RpcError);
  EXPECT_THROW(throw_client_error(RpcError(kServerError, "pool full")), RejectedError);
  try {
    throw_client_error(RpcError(kInvalidParams, "bad shard"));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kInvalidParams);
  }
}

TEST(BatchReplyTest, TakeMatchesSingleCallTaxonomy) {
  BatchReply ok;
  ok.result = json::Value(7);
  EXPECT_EQ(ok.take().as_int(), 7);

  BatchReply rejected;
  rejected.error_code = kServerError;
  rejected.error_message = "overloaded";
  EXPECT_THROW(rejected.take(), RejectedError);

  BatchReply protocol;
  protocol.error_code = kInvalidParams;
  protocol.error_message = "bad";
  EXPECT_THROW(protocol.take(), RpcError);
}

TEST(MatchBatchRepliesTest, MatchesOutOfOrderById) {
  json::Array responses;
  responses.push_back(make_result_response(json::Value(12), json::Value("second")));
  responses.push_back(make_result_response(json::Value(11), json::Value("first")));
  auto replies = match_batch_replies(json::Value(std::move(responses)), {11, 12});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].take().as_string(), "first");
  EXPECT_EQ(replies[1].take().as_string(), "second");
}

TEST(MatchBatchRepliesTest, WholeBatchErrorFansOut) {
  json::Value err = make_error_response(json::Value(), kInvalidRequest, "empty batch");
  auto replies = match_batch_replies(err, {1, 2, 3});
  ASSERT_EQ(replies.size(), 3u);
  for (const BatchReply& r : replies) EXPECT_EQ(r.error_code, kInvalidRequest);
}

TEST(MatchBatchRepliesTest, MissingResponseBecomesInternalError) {
  json::Array responses;
  responses.push_back(make_result_response(json::Value(1), json::Value("ok")));
  auto replies = match_batch_replies(json::Value(std::move(responses)), {1, 2});
  EXPECT_TRUE(replies[0].ok());
  EXPECT_EQ(replies[1].error_code, kInternalError);
}

TEST(DispatcherTest, ResponseEchoesRequestId) {
  auto d = make_dispatcher();
  json::Value resp = d->dispatch(make_request(77, "echo", json::Value("x")));
  EXPECT_EQ(resp.at("id").as_int(), 77);
}

TEST(DispatcherTest, DuplicateRegistrationThrows) {
  Dispatcher d;
  d.register_method("m", [](const json::Value&) { return json::Value(); });
  EXPECT_THROW(d.register_method("m", [](const json::Value&) { return json::Value(); }),
               LogicError);
}

TEST(DispatcherTest, HasMethod) {
  auto d = make_dispatcher();
  EXPECT_TRUE(d->has_method("echo"));
  EXPECT_FALSE(d->has_method("missing"));
}

TEST(TakeResultTest, ThrowsRpcErrorWithCode) {
  json::Value err = make_error_response(json::Value(1), kServerError, "busy");
  try {
    take_result(err);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), kServerError);
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
}

TEST(TakeResultTest, MalformedResponsesThrowParseError) {
  EXPECT_THROW(take_result(json::Value(1)), ParseError);
  EXPECT_THROW(take_result(json::object({{"jsonrpc", "2.0"}})), ParseError);
}

TEST(InProcChannelTest, CallRoundTrip) {
  InProcChannel channel(make_dispatcher());
  json::Value result = channel.call("add", json::object({{"a", 40}, {"b", 2}}));
  EXPECT_EQ(result.as_int(), 42);
}

TEST(InProcChannelTest, ErrorsSurfaceAsRpcError) {
  InProcChannel channel(make_dispatcher());
  EXPECT_THROW(channel.call("reject", json::Value()), RpcError);
  EXPECT_THROW(channel.call("unknown", json::Value()), RpcError);
}

TEST(InProcChannelTest, DefaultCallAsyncYieldsResult) {
  InProcChannel channel(make_dispatcher());
  std::future<json::Value> fut = channel.call_async("add", json::object({{"a", 1}, {"b", 2}}));
  EXPECT_EQ(fut.get().as_int(), 3);
  std::future<json::Value> err = channel.call_async("reject", json::Value());
  EXPECT_THROW(err.get(), RpcError);
}

TEST(InProcChannelTest, CallBatchAlignsRepliesWithCalls) {
  InProcChannel channel(make_dispatcher());
  std::vector<BatchCall> calls;
  calls.push_back({"add", json::object({{"a", 1}, {"b", 1}})});
  calls.push_back({"reject", json::Value()});
  calls.push_back({"add", json::object({{"a", 2}, {"b", 2}})});
  std::vector<BatchReply> replies = channel.call_batch(calls);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].take().as_int(), 2);
  EXPECT_EQ(replies[1].error_code, kServerError);
  EXPECT_THROW(replies[1].take(), RejectedError);
  EXPECT_EQ(replies[2].take().as_int(), 4);
}

TEST(InProcChannelTest, EmptyBatchReturnsEmpty) {
  InProcChannel channel(make_dispatcher());
  EXPECT_TRUE(channel.call_batch({}).empty());
}

// ------------------------------------------------ envelope bytes, pinned
// The request writer and the dispatcher's response writers never build the
// envelope as a tree; their bytes must equal the tree writer's.

TEST(WriteRequestTest, BytesEqualTheTreeWriter) {
  const std::vector<json::Value> params = {
      json::object({{"tx", json::object({{"sig", "ab"}, {"nonce", 7}, {"args", json::object({})}})},
                    {"z", 1.5}}),
      json::Value(),
      json::array({1, "two", json::array({}), json::object({{"k", nullptr}})}),
      json::object({{"quote\"key", "line\nbreak\ttab \\ slash \x01 \xc3\xa9"}}),
      json::Value("bare string"),
  };
  const std::vector<std::string> methods = {"chain.submit", "odd \"method\"\n"};
  const std::vector<std::uint64_t> ids = {0, 1, 4096, ~std::uint64_t{0}};
  for (const json::Value& p : params) {
    for (const std::string& method : methods) {
      for (std::uint64_t id : ids) {
        std::string text = "prefix";
        write_request(text, id, method, p);
        EXPECT_EQ(text, "prefix" + make_request(id, method, p).dump());
      }
    }
  }
}

std::shared_ptr<Dispatcher> make_text_dispatcher() {
  auto d = make_dispatcher();
  d->register_method("escape", [](const json::Value&) -> json::Value {
    throw RejectedError("say \"no\"\n\\ \x02");
  });
  return d;
}

std::string parse_error_message(std::string_view text) {
  try {
    json::Value::parse(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(DispatchTextTest, SingleResponsesEqualTheTreeWriter) {
  auto d = make_text_dispatcher();
  const json::Value id(5);
  // ok
  EXPECT_EQ(d->dispatch_text(make_request(5, "add", json::object({{"a", 2}, {"b", 3}})).dump()),
            make_result_response(id, json::Value(5)).dump());
  EXPECT_EQ(d->dispatch_text(make_request(5, "echo", json::array({"x", json::object({})})).dump()),
            make_result_response(id, json::array({"x", json::object({})})).dump());
  // errors, with a message that needs escaping
  EXPECT_EQ(d->dispatch_text(make_request(5, "escape", json::Value()).dump()),
            make_error_response(id, kServerError, "rejected: say \"no\"\n\\ \x02").dump());
  EXPECT_EQ(d->dispatch_text(make_request(5, "nope", json::Value()).dump()),
            make_error_response(id, kMethodNotFound, "unknown method namespace 'nope' in method "
                                                     "'nope'").dump());
  EXPECT_EQ(d->dispatch_text(R"({"id":"s","method":"echo"})"),
            make_error_response(json::Value("s"), kInvalidRequest, "missing jsonrpc: \"2.0\"")
                .dump());
  EXPECT_EQ(d->dispatch_text("42"),
            make_error_response(json::Value(), kInvalidRequest, "request must be an object")
                .dump());
  // parse error and empty batch: null id
  EXPECT_EQ(d->dispatch_text("{not json"),
            make_error_response(json::Value(), kParseError, parse_error_message("{not json"))
                .dump());
  EXPECT_EQ(d->dispatch_text("[]"),
            make_error_response(json::Value(), kInvalidRequest, "empty batch").dump());
}

TEST(DispatchTextTest, TraceMemberIsStrippedBeforeTheHandler) {
  auto d = make_text_dispatcher();
  json::Value params = json::object({{"x", 1}});
  params["_trace"] = json::object({{"t", 9}, {"s", 4}});
  EXPECT_EQ(d->dispatch_text(make_request(3, "echo", params).dump()),
            make_result_response(json::Value(3), json::object({{"x", 1}})).dump());
}

TEST(DispatchTextTest, BatchResponseEqualsTheTreeWriter) {
  auto d = make_text_dispatcher();
  json::Array batch;
  batch.push_back(make_request(1, "add", json::object({{"a", 2}, {"b", 3}})));
  batch.push_back(make_request(2, "reject", json::Value()));
  batch.push_back(make_request(3, "missing.method", json::Value()));
  batch.push_back(json::Value("not a request"));
  batch.push_back(make_request(4, "escape", json::Value()));
  batch.push_back(make_request(5, "echo", json::object({{"_trace", json::object({{"t", 1}})}})));
  json::Array expected;
  for (const json::Value& entry : batch) expected.push_back(d->dispatch(entry));
  EXPECT_EQ(d->dispatch_text(json::Value(batch).dump()), json::Value(std::move(expected)).dump());
}

TEST(MatchBatchRepliesTest, InOrderResponsesMatchByPosition) {
  json::Array responses;
  responses.push_back(make_result_response(json::Value(7), json::Value("a")));
  responses.push_back(make_error_response(json::Value(8), kServerError, "full"));
  responses.push_back(make_result_response(json::Value(9), json::Value("c")));
  auto replies = match_batch_replies(json::Value(std::move(responses)), {7, 8, 9});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].take().as_string(), "a");
  EXPECT_EQ(replies[1].error_code, kServerError);
  EXPECT_EQ(replies[1].error_message, "full");
  EXPECT_EQ(replies[2].take().as_string(), "c");
}

}  // namespace
}  // namespace hammer::rpc
