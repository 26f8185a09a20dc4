#include "rpc/wire/codec.hpp"

#include <algorithm>
#include <cstring>

#include "rpc/api.hpp"
#include "util/errors.hpp"

namespace hammer::rpc::wire {

namespace {

// Value tag bytes. Booleans get their own tags so true/false cost one byte.
enum : unsigned char {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagObject = 7,
};

[[noreturn]] void truncated(const char* what) {
  throw ParseError(std::string("binary frame truncated in ") + what);
}

void put_bytes(std::string& out, std::string_view bytes) {
  put_varint(out, bytes.size());
  out.append(bytes.data(), bytes.size());
}

std::string_view get_bytes(const char*& p, const char* end, const char* what) {
  std::uint64_t len = get_varint(p, end);
  if (len > static_cast<std::uint64_t>(end - p)) truncated(what);
  std::string_view view(p, static_cast<std::size_t>(len));
  p += len;
  return view;
}

}  // namespace

const char* to_string(WireCodec codec) {
  switch (codec) {
    case WireCodec::kJson: return "json";
    case WireCodec::kBinary: return "binary";
  }
  return "?";
}

void throw_bad_varint(bool overflow) {
  if (overflow) throw ParseError("varint overflows 64 bits");
  truncated("varint");
}

// Direct recursive walk rather than the json::Visitor SAX interface: the
// encoder sits on the per-call hot path, and a type switch inlines where
// fifteen virtual dispatches per tree do not.
void encode_value(std::string& out, const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      out.push_back(static_cast<char>(kTagNull));
      return;
    case json::Value::Type::kBool:
      out.push_back(static_cast<char>(v.as_bool() ? kTagTrue : kTagFalse));
      return;
    case json::Value::Type::kInt:
      out.push_back(static_cast<char>(kTagInt));
      put_zigzag(out, v.as_int());
      return;
    case json::Value::Type::kDouble: {
      out.push_back(static_cast<char>(kTagDouble));
      double d = v.as_double();
      char bytes[sizeof(double)];
      std::memcpy(bytes, &d, sizeof(double));
      out.append(bytes, sizeof(double));
      return;
    }
    case json::Value::Type::kString:
      out.push_back(static_cast<char>(kTagString));
      put_bytes(out, v.as_string());
      return;
    case json::Value::Type::kArray: {
      const json::Array& arr = v.as_array();
      out.push_back(static_cast<char>(kTagArray));
      put_varint(out, arr.size());
      for (const json::Value& item : arr) encode_value(out, item);
      return;
    }
    case json::Value::Type::kObject: {
      const json::Object& obj = v.as_object();
      out.push_back(static_cast<char>(kTagObject));
      put_varint(out, obj.size());
      for (const auto& [key, item] : obj) {
        put_bytes(out, key);
        encode_value(out, item);
      }
      return;
    }
  }
}

namespace {

// Decodes one value into `out` (null on entry) in place: members and
// elements are built where they will live, not returned and moved.
void decode_into(json::Value& out, const char*& p, const char* end) {
  if (p >= end) truncated("value tag");
  unsigned char tag = static_cast<unsigned char>(*p++);
  switch (tag) {
    case kTagNull: return;
    case kTagFalse: out = false; return;
    case kTagTrue: out = true; return;
    case kTagInt: out = get_zigzag(p, end); return;
    case kTagDouble: {
      if (end - p < static_cast<std::ptrdiff_t>(sizeof(double))) truncated("double");
      double d;
      std::memcpy(&d, p, sizeof(double));
      p += sizeof(double);
      out = d;
      return;
    }
    case kTagString: out = get_bytes(p, end, "string"); return;
    case kTagArray: {
      std::uint64_t count = get_varint(p, end);
      // Every element takes at least its tag byte: a corrupt count must not
      // pre-allocate gigabytes before the decode loop fails.
      if (count > static_cast<std::uint64_t>(end - p)) truncated("array");
      json::Array arr(static_cast<std::size_t>(count));
      for (json::Value& item : arr) decode_into(item, p, end);
      out = std::move(arr);
      return;
    }
    case kTagObject: {
      std::uint64_t count = get_varint(p, end);
      // Every member takes at least a key length and a tag byte.
      if (count > static_cast<std::uint64_t>(end - p) / 2) truncated("object");
      std::vector<json::Object::value_type> members;
      members.reserve(static_cast<std::size_t>(count));
      bool ascending = true;
      for (std::uint64_t i = 0; i < count; ++i) {
        std::string_view key = get_bytes(p, end, "object key");
        ascending = ascending && (members.empty() || members.back().first < key);
        auto& member = members.emplace_back(std::piecewise_construct,
                                            std::forward_as_tuple(key), std::forward_as_tuple());
        decode_into(member.second, p, end);
      }
      if (!ascending) {
        // Canonical encoders emit keys in strictly ascending order. A
        // foreign one may not: sort once (O(n log n) whatever the order),
        // and a repeated key keeps its first value.
        auto key_less = [](const auto& a, const auto& b) { return a.first < b.first; };
        auto key_equal = [](const auto& a, const auto& b) { return a.first == b.first; };
        std::stable_sort(members.begin(), members.end(), key_less);
        members.erase(std::unique(members.begin(), members.end(), key_equal), members.end());
      }
      out = json::Object(std::move(members));
      return;
    }
    default:
      throw ParseError("unknown binary value tag " + std::to_string(tag));
  }
}

}  // namespace

json::Value decode_value(const char*& p, const char* end) {
  json::Value out;
  decode_into(out, p, end);
  return out;
}

void put_header(std::string& out, FrameKind kind) {
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(kind));
}

bool is_versioned(std::string_view payload) {
  return !payload.empty() && static_cast<unsigned char>(payload[0]) == kMagic;
}

ParsedFrame parse_versioned(std::string_view payload) {
  if (payload.size() < kHeaderBytes || !is_versioned(payload)) {
    throw ParseError("not a versioned wire frame");
  }
  if (static_cast<unsigned char>(payload[1]) != kVersion) {
    throw ParseError("unsupported wire version " +
                     std::to_string(static_cast<unsigned char>(payload[1])));
  }
  ParsedFrame frame;
  frame.kind = static_cast<FrameKind>(static_cast<unsigned char>(payload[2]));
  frame.body = payload.substr(kHeaderBytes);
  return frame;
}

void encode_call(std::string& out, std::uint64_t id, std::string_view method,
                 const json::Value& params) {
  put_varint(out, id);
  put_bytes(out, method);
  encode_value(out, params);
}

std::vector<DecodedCall> decode_request_body(std::string_view body) {
  const char* p = body.data();
  const char* end = p + body.size();
  std::uint64_t count = get_varint(p, end);
  std::vector<DecodedCall> calls;
  calls.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, static_cast<std::uint64_t>(end - p) + 1)));
  for (std::uint64_t i = 0; i < count; ++i) {
    DecodedCall call;
    call.id = get_varint(p, end);
    call.method = std::string(get_bytes(p, end, "method"));
    call.params = decode_value(p, end);
    calls.push_back(std::move(call));
  }
  if (p != end) throw ParseError("trailing bytes after binary request body");
  return calls;
}

void encode_response_entry(std::string& out, const ResponseEntry& entry) {
  put_varint(out, entry.id);
  if (entry.ok()) {
    out.push_back(0);
    encode_value(out, entry.result);
  } else {
    out.push_back(1);
    put_zigzag(out, entry.error_code);
    put_bytes(out, entry.error_message);
  }
}

std::vector<ResponseEntry> decode_response_body(std::string_view body) {
  std::vector<ResponseEntry> entries;
  decode_response_into(body, entries);
  return entries;
}

void decode_response_into(std::string_view body, std::vector<ResponseEntry>& out) {
  out.clear();
  const char* p = body.data();
  const char* end = p + body.size();
  std::uint64_t count = get_varint(p, end);
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, static_cast<std::uint64_t>(end - p) + 1)));
  for (std::uint64_t i = 0; i < count; ++i) {
    ResponseEntry entry;
    entry.id = get_varint(p, end);
    if (p >= end) truncated("response status");
    unsigned char status = static_cast<unsigned char>(*p++);
    if (status == 0) {
      entry.result = decode_value(p, end);
    } else if (status == 1) {
      entry.error_code = static_cast<int>(get_zigzag(p, end));
      entry.error_message = std::string(get_bytes(p, end, "error message"));
    } else {
      throw ParseError("unknown response status " + std::to_string(status));
    }
    out.push_back(std::move(entry));
  }
  if (p != end) throw ParseError("trailing bytes after binary response body");
}

std::string make_hello_body(std::int64_t now_us) {
  json::Value body = json::object({{"version", static_cast<std::int64_t>(kVersion)},
                                   {"api", static_cast<std::int64_t>(kApiVersion)},
                                   {"codecs", json::array({"binary", "json"})},
                                   {"features", json::array({"trace"})}});
  if (now_us >= 0) body["now_us"] = now_us;
  return body.dump();
}

std::string make_hello_ok_body(std::int64_t now_us) { return make_hello_body(now_us); }

std::string make_error_body(int code, const std::string& message) {
  return json::object({{"code", code}, {"message", message}}).dump();
}

bool offers_binary(std::string_view hello_body) {
  try {
    json::Value body = json::Value::parse(hello_body);
    if (body.get_int("version", 0) != kVersion) return false;
    if (!body.contains("codecs")) return false;
    for (const json::Value& codec : body.at("codecs").as_array()) {
      if (codec.is_string() && codec.as_string() == "binary") return true;
    }
  } catch (const Error&) {
    // Malformed hello: negotiate down, never up.
  }
  return false;
}

bool offers_trace(std::string_view hello_body) {
  try {
    json::Value body = json::Value::parse(hello_body);
    if (body.get_int("version", 0) != kVersion) return false;
    if (!body.contains("features")) return false;
    for (const json::Value& feature : body.at("features").as_array()) {
      if (feature.is_string() && feature.as_string() == "trace") return true;
    }
  } catch (const Error&) {
    // Malformed hello: negotiate down, never up.
  }
  return false;
}

std::int64_t hello_now_us(std::string_view hello_body) {
  try {
    json::Value body = json::Value::parse(hello_body);
    return body.get_int("now_us", -1);
  } catch (const Error&) {
    return -1;
  }
}

int hello_api_version(std::string_view hello_body) {
  try {
    json::Value body = json::Value::parse(hello_body);
    return static_cast<int>(body.get_int("api", -1));
  } catch (const Error&) {
    return -1;
  }
}

void put_trace_prefix(std::string& out, std::uint64_t trace_id, std::uint64_t span_id) {
  put_varint(out, trace_id);
  put_varint(out, span_id);
}

TracePrefix parse_trace_prefix(std::string_view body) {
  const char* p = body.data();
  const char* end = body.data() + body.size();
  TracePrefix prefix;
  prefix.trace_id = get_varint(p, end);
  prefix.span_id = get_varint(p, end);
  prefix.rest = std::string_view(p, static_cast<std::size_t>(end - p));
  return prefix;
}

}  // namespace hammer::rpc::wire
