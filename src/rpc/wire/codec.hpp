// Binary wire codec and versioned framing for the RPC layer (DESIGN.md §11).
//
// Every frame on the TCP transport is `u32-be length` + payload. Two payload
// families coexist on one connection:
//
//   raw JSON        payload begins '{', '[' or whitespace — the PR-1 wire
//                   format, untouched. Old clients keep working; a client
//                   configured kJsonOnly never sends anything else.
//
//   versioned       payload begins with the magic byte 0xB7 (never a legal
//                   first byte of a JSON document), then a version byte,
//                   then a frame-kind byte, then the body:
//
//                     [0xB7][ver][kind][body ...]
//
//                   kHello / kHelloOk carry a small JSON body and perform
//                   codec negotiation; kError carries {"code","message"}
//                   (the server's last words before dropping a connection,
//                   e.g. an oversize frame); kBinaryRequest/kBinaryResponse
//                   carry the binary-codec batch bodies below.
//
// The binary codec drops the JSON-RPC envelope entirely — framing IS the
// envelope — but dispatches through the exact same Dispatcher method tables,
// so the taxonomy/retry/fault layers above notice nothing:
//
//   request body    varint n, then n x [varint id][varint len method][value params]
//   response body   varint n, then n x [varint id][status u8]
//                     status 0: [value result]
//                     status 1: [zigzag code][varint len message]
//
// Values serialize as a tag byte + payload (varint/zigzag ints, 8-byte LE
// doubles, length-prefixed strings, count-prefixed arrays/objects). Object
// members encode in key order (json::Object keeps them sorted), so encoding is
// canonical: encode(decode(bytes)) == bytes for every valid input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"

namespace hammer::rpc::wire {

inline constexpr unsigned char kMagic = 0xB7;
inline constexpr unsigned char kVersion = 0x01;
// [magic][version][kind] precede every versioned payload.
inline constexpr std::size_t kHeaderBytes = 3;

enum class FrameKind : unsigned char {
  kHello = 0x00,           // client -> server: codec offer (JSON body)
  kHelloOk = 0x01,         // server -> client: accepted codecs (JSON body)
  kError = 0x02,           // server -> client: fatal connection error (JSON body)
  kBinaryRequest = 0x10,   // binary batch of calls
  kBinaryResponse = 0x11,  // binary batch of replies
  // A kBinaryRequest whose body is prefixed with a trace context:
  // [varint trace_id][varint span_id][request body]. Sent only after the
  // peer advertised the "trace" feature in its hello-ok (old servers never
  // see it); the response is a plain kBinaryResponse.
  kTracedRequest = 0x12,
};

// Which codec a channel speaks after negotiation.
enum class WireCodec : unsigned char { kJson = 1, kBinary = 2 };
const char* to_string(WireCodec codec);

// Error code carried by a kError frame when a frame exceeded
// rpc::kMaxFrameBytes (outside the JSON-RPC -327xx range on purpose: it is
// a transport verdict, not a dispatch one).
inline constexpr int kErrFrameTooLarge = -32010;
inline constexpr int kErrUnsupportedVersion = -32011;

// ---------------------------------------------------------------- varints

// Inline: every key, string length, count and int on the per-call path
// passes through them, and most are one byte.

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

// Throws hammer::ParseError: "varint overflows 64 bits", or a truncation.
[[noreturn]] void throw_bad_varint(bool overflow);

// Readers advance `p`; throw hammer::ParseError on truncated/overlong input.
inline std::uint64_t get_varint(const char*& p, const char* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    unsigned char byte = static_cast<unsigned char>(*p++);
    if (shift == 63 && byte > 1) throw_bad_varint(true);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw_bad_varint(true);
  }
  throw_bad_varint(false);
}

inline std::int64_t get_zigzag(const char*& p, const char* end) {
  std::uint64_t raw = get_varint(p, end);
  return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

// ---------------------------------------------------------------- values

// Canonical binary encoding of a JSON value tree, appended to `out` in one
// direct recursive pass — no intermediate strings or temporaries.
void encode_value(std::string& out, const json::Value& v);

// Decodes one value starting at `p`; advances `p` past it.
json::Value decode_value(const char*& p, const char* end);

// ---------------------------------------------------------------- frames

// Appends the 3-byte versioned header for `kind`.
void put_header(std::string& out, FrameKind kind);

// True when `payload` starts with the versioned magic byte.
bool is_versioned(std::string_view payload);

// Splits a versioned payload into its kind + body view. Throws ParseError
// on a bad magic byte or unsupported version.
struct ParsedFrame {
  FrameKind kind;
  std::string_view body;
};
ParsedFrame parse_versioned(std::string_view payload);

// ------------------------------------------------------- request/response

struct DecodedCall {
  std::uint64_t id = 0;
  std::string method;
  json::Value params;
};

struct ResponseEntry {
  std::uint64_t id = 0;
  int error_code = 0;  // 0 = success
  std::string error_message;
  json::Value result;
  bool ok() const { return error_code == 0; }
};

// Appends one call entry (no count prefix — the caller writes the varint
// count first, which is what lets call_batch scatter-gather entries).
void encode_call(std::string& out, std::uint64_t id, std::string_view method,
                 const json::Value& params);
std::vector<DecodedCall> decode_request_body(std::string_view body);

void encode_response_entry(std::string& out, const ResponseEntry& entry);
std::vector<ResponseEntry> decode_response_body(std::string_view body);
// Clears `out` and decodes into it, reusing its capacity — the reader-loop
// path, which decodes one frame after another into the same vector.
void decode_response_into(std::string_view body, std::vector<ResponseEntry>& out);

// ---------------------------------------------------------------- control

// Hello bodies are JSON (always decodable, whatever the negotiation
// outcome): {"version": 1, "api": rpc::kApiVersion, "codecs": ["binary",
// "json"], "features": ["trace"], "now_us": <steady-clock stamp>}. Peers
// that predate a key ignore it; absence of a key means the capability is
// off — negotiate down, never up. `now_us` (omitted when negative) is the
// sender's steady clock at build time: the hello/hello-ok round trip
// doubles as the clock-offset handshake that maps SUT span timestamps onto
// the driver's monotonic base. "api" is the version of the method surface
// (rpc/api.hpp), distinct from "version" which names the framing.
std::string make_hello_body(std::int64_t now_us = -1);
std::string make_hello_ok_body(std::int64_t now_us = -1);
std::string make_error_body(int code, const std::string& message);

// True when a hello/hello-ok body advertises the binary codec at a version
// we speak. Malformed bodies are simply "no".
bool offers_binary(std::string_view hello_body);

// True when a hello/hello-ok body advertises the "trace" feature at a
// version we speak (same malformed-means-no rule).
bool offers_trace(std::string_view hello_body);

// The peer's steady-clock stamp from a hello/hello-ok body, or -1 when the
// peer predates the handshake (or the body is malformed).
std::int64_t hello_now_us(std::string_view hello_body);

// The peer's method-surface version ("api") from a hello/hello-ok body, or
// -1 when the peer predates API versioning (or the body is malformed).
int hello_api_version(std::string_view hello_body);

// ------------------------------------------------------------ trace prefix

// Appends the kTracedRequest context prefix.
void put_trace_prefix(std::string& out, std::uint64_t trace_id, std::uint64_t span_id);

// Splits a kTracedRequest body into its context and the request body that
// follows. Throws ParseError on truncated input.
struct TracePrefix {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::string_view rest;
};
TracePrefix parse_trace_prefix(std::string_view body);

}  // namespace hammer::rpc::wire
