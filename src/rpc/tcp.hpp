// TCP transport: 4-byte big-endian length prefix followed by either a raw
// JSON-RPC document (the legacy/fallback codec) or a versioned wire frame
// (magic + version + kind; see rpc/wire/codec.hpp and DESIGN.md §11).
//
// Server: a single epoll event loop owns every connection socket and does
// the framing over pooled arena buffers; complete request frames are sliced
// out zero-copy (wire::Slice shares the buffer, no substr) and fan out to a
// small worker pool that runs the dispatcher and writes response frames
// back with one scatter-gather writev (per-connection write lock, so frames
// never interleave). Hello/control frames are answered by the event thread
// itself. The server speaks whichever codec each request frame arrived in,
// so one server carries JSON and binary clients side by side.
//
// Client: TcpChannel multiplexes one connection. At connect time the
// channel negotiates the wire codec (ClientConfig::codec — binary
// preferred, JSON fallback when the server does not answer the hello).
// Writers frame requests back-to-back without waiting (call_async /
// call_batch); a dedicated reader thread parses response frames and
// completes the matching promise by request id, so responses may arrive in
// any order. Blocking call() is just call_async().get() with the per-call
// timeout applied.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "fault/resource.hpp"
#include "rpc/client_config.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/wire/arena.hpp"
#include "rpc/wire/codec.hpp"
#include "util/mpmc_queue.hpp"

namespace hammer::rpc {

// Frames above this are a protocol violation. The sender fails the call
// with FrameTooLargeError before touching the socket; a receiver announces
// wire::kErrFrameTooLarge and drops the connection instead of attempting
// the allocation. Both ends count hammer_wire_oversize_frames_total.
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

// Serves one Dispatcher on a loopback port through an epoll event loop
// plus a fixed worker pool.
class TcpServer {
 public:
  // port = 0 picks a free port; see port() after construction.
  // worker_threads = 0 sizes the pool from the hardware (clamped to [2,8]).
  explicit TcpServer(std::shared_ptr<const Dispatcher> dispatcher, std::uint16_t port = 0,
                     std::size_t worker_threads = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::size_t worker_count() const { return workers_.size(); }
  void stop();

  // Server-side fault hooks (kDropResponse: the request executes but the
  // reply never leaves; kSlowLoris: the reply stalls slow_loris_us on a
  // worker thread). Install before clients generate traffic.
  void install_fault_injector(std::shared_ptr<fault::FaultInjector> faults);

  // Ingress throttling (resource fault): workers block on the throttle's
  // token bucket before dispatching each request, so this target's
  // admission rate collapses to the throttle's rps. Null uninstalls.
  void install_ingress_throttle(std::shared_ptr<fault::IngressThrottle> throttle);

 private:
  struct Connection {
    Connection(int fd, std::uint64_t ordinal) : fd(fd), ordinal(ordinal) {}
    ~Connection();  // closes fd once the last reference drops

    const int fd;
    const std::uint64_t ordinal;  // accept order; keys this connection's reply faults
    std::atomic<std::uint64_t> replies{0};  // response frames faults were decided for
    // Read side, event thread only: an arena buffer being filled, and the
    // parse cursor into it. The buffer is retired (tail copied to a fresh
    // one) as soon as a frame is sliced out of it, so outstanding Slices
    // are never invalidated by later appends — see wire/arena.hpp.
    wire::BufferPtr rdbuf;
    std::size_t rd_off = 0;
    std::mutex write_mu;  // one response frame at a time
    std::atomic<bool> dead{false};
  };
  struct Work {
    std::shared_ptr<Connection> conn;
    wire::Slice request;    // payload bytes, zero-copy out of rdbuf
    wire::WireCodec codec;  // codec the frame arrived in (reply mirrors it)
    // Distributed tracing: context from a kTracedRequest prefix (JSON
    // frames carry theirs in params) and the event-thread arrival stamp
    // that anchors the dispatch-queue-wait span.
    telemetry::TraceContext trace;
    std::int64_t recv_us = 0;
  };

  void event_loop();
  void accept_new();
  void drain_readable(const std::shared_ptr<Connection>& conn);
  void drop_connection(int fd);
  // Sends a versioned control frame (hello-ok / error) from the event
  // thread; best-effort, never throws.
  void send_control(const std::shared_ptr<Connection>& conn, wire::FrameKind kind,
                    const std::string& body);
  void worker_loop();
  void reply_json(const Work& work);
  void reply_binary(const Work& work);
  // Writes one response frame unless drop_response fires for it.
  void send_reply(const Work& work, const wire::Buffer& out);

  std::shared_ptr<fault::FaultInjector> fault_injector() const;
  std::shared_ptr<fault::IngressThrottle> ingress_throttle() const;

  std::shared_ptr<const Dispatcher> dispatcher_;
  mutable std::mutex faults_mu_;
  std::shared_ptr<fault::FaultInjector> faults_;
  std::shared_ptr<fault::IngressThrottle> throttle_;  // guarded by faults_mu_
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  util::MpmcQueue<Work> work_queue_{1024};
  std::mutex connections_mu_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::uint64_t accepted_ = 0;  // event thread only
  std::thread event_thread_;
  std::vector<std::thread> workers_;
};

// Multiplexing client channel: any number of in-flight calls share the one
// connection, correlated by request id. Thread-safe; drivers may still open
// one channel per worker to spread socket work across server connections.
//
// A broken connection is not terminal: the next call(), call_async() or
// call_batch() reconnects to the original endpoint and re-negotiates the
// codec (in-flight calls from the broken generation still fail — ids are
// not replayed). Retry policy lives a layer up (rpc::ClientConfig::retry);
// the channel only makes retrying possible.
class TcpChannel final : public Channel {
 public:
  // Full configuration: codec preference and the blocking-call timeout come
  // from `config` (per-call CallOptions deadlines still override the
  // timeout; call_async futures are unbounded — the caller owns the wait
  // policy). The default config negotiates binary-preferred with a 5 s
  // timeout.
  TcpChannel(const std::string& host, std::uint16_t port, const ClientConfig& config = {});
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  json::Value call(const std::string& method, json::Value params,
                   const CallOptions& opts = {}) override;
  std::future<json::Value> call_async(const std::string& method, json::Value params,
                                      const CallOptions& opts = {}) override;
  std::vector<BatchReply> call_batch(const std::vector<BatchCall>& calls,
                                     const CallOptions& opts = {}) override;

  // Codec this channel negotiated for the current connection generation.
  wire::WireCodec codec() const { return codec_.load(std::memory_order_relaxed); }

  // True when the peer's hello-ok advertised the "trace" feature — the gate
  // for sending trace contexts (kTracedRequest frames / `_trace` params).
  bool peer_traces() const { return peer_traces_.load(std::memory_order_relaxed); }

  // Method-surface version the peer's hello-ok advertised ("api"), or -1
  // when unknown — the peer predates API versioning, or this channel is
  // kJsonOnly and never exchanged hellos. See rpc::kApiVersion.
  int peer_api() const { return peer_api_.load(std::memory_order_relaxed); }

  // Peer-steady-clock offset measured during the hello round trip of the
  // current connection generation ({} when the peer predates the
  // handshake). See telemetry::ClockOffset.
  telemetry::ClockOffset clock_offset() const override {
    return telemetry::ClockOffset{clock_offset_us_.load(std::memory_order_relaxed)};
  }

  // Client-side fault hooks (kClientLatency sleeps before a send,
  // kConnReset shuts the socket down and fails the call), keyed per
  // CallOptions::fault_keys entry. Install before sharing the channel.
  void install_fault_injector(std::shared_ptr<fault::FaultInjector> faults);

 private:
  std::future<json::Value> send_request(const std::string& method, json::Value params,
                                        std::uint64_t& id_out, const CallOptions& opts);
  // Reopens the socket and restarts the reader if the connection broke.
  void ensure_connected();
  // Offers the binary codec on a fresh socket (blocking, pre-reader) and
  // records the negotiated outcome in codec_.
  void negotiate(int fd);
  void inject_send_faults(std::span<const std::uint64_t> keys);  // sleeps or throws
  std::chrono::milliseconds effective_deadline(const CallOptions& opts) const {
    return opts.deadline.count() > 0 ? opts.deadline : timeout_;
  }
  // Shared completion state for one call_batch round trip. Two completion
  // modes share it:
  //
  //  direct frame handoff (binary fast path): the reader recognizes a
  //    response frame that covers the batch's entire id range and hands the
  //    raw payload over as a zero-copy Slice; the CALLER decodes it straight
  //    into its reply vector. Keeping decode on the consuming thread means
  //    every tree node is malloc'd, read and freed on one core — no
  //    cross-thread allocator traffic, no reply moves through the group.
  //
  //  slot fills (JSON batches, stray/partial frames): the reader writes
  //    reply slots directly under mu (one mutex + condvar per batch, not N
  //    futex-backed futures) and wakes the caller when the last slot lands.
  struct BatchGroup {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;         // guarded by mu; counts unfilled slots
    std::exception_ptr failure;        // guarded by mu; first transport error
    std::vector<BatchReply> replies;   // slot per call, guarded by mu
    std::vector<bool> filled;          // guarded by mu; guards double completion
    bool abandoned = false;            // guarded by mu; fills are skipped once set
    wire::Slice frame;                 // guarded by mu; direct-handoff payload
    bool frame_ready = false;          // guarded by mu
  };
  // One in-flight single call (call / call_async). Batches never enter the
  // per-id table: a batch's consecutive ids register as ONE BatchRange, so a
  // 64-call batch costs one map node, not 64 hash-table nodes.
  struct PendingSlot {
    std::promise<json::Value> promise;
  };
  struct BatchRange {  // guarded by pending_mu_, keyed by first_id
    std::uint32_t count = 0;
    std::shared_ptr<BatchGroup> group;
  };

  void reader_loop(int fd);
  // Reader-side half of the direct frame handoff: if the binary response
  // frame at `body` (a view into `buf`) exactly covers one registered batch
  // range, parks a zero-copy Slice on that group, wakes the caller and
  // returns true. False means the frame needs the complete_binary path.
  bool try_handoff(const wire::BufferPtr& buf, std::string_view body);
  // Completes the call one JSON response answers; moves its result out.
  void complete(json::Value& response);
  // Completes every entry of one binary response frame: one pass under the
  // pending-table lock to resolve ids, one lock per batch group (usually a
  // single group per frame) to fill replies. Results are moved out.
  void complete_binary(std::vector<wire::ResponseEntry>& entries);
  // Looks up the batch range covering `id` (pending_mu_ must be held; the
  // returned pointer is only valid while it is). Writes the slot index and
  // returns the table's range entry, or null for no match.
  BatchRange* find_range(std::uint64_t id, std::uint32_t& slot_out);
  void fail_all(std::exception_ptr reason);
  void forget(std::uint64_t id);
  // Abandons a batch: drops its range entry and reconciles the in-flight
  // gauge for the slots that never completed.
  void forget_range(std::uint64_t first_id, const std::shared_ptr<BatchGroup>& group);
  // Idempotent terminal transition for a group: marks it abandoned (fills
  // become no-ops), records the first failure if one is given, wakes the
  // waiter and reconciles the in-flight gauge for the unfilled slots. Must
  // be called WITHOUT pending_mu_ or the group mutex held.
  void abandon_group(const std::shared_ptr<BatchGroup>& group, std::exception_ptr reason);

  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;  // guarded by write_mu_ once the channel is shared
  std::chrono::milliseconds timeout_;
  CodecPreference preference_ = CodecPreference::kBinaryPreferred;
  std::atomic<wire::WireCodec> codec_{wire::WireCodec::kJson};
  std::atomic<bool> peer_traces_{false};
  std::atomic<int> peer_api_{-1};
  std::atomic<std::int64_t> clock_offset_us_{0};
  std::shared_ptr<fault::FaultInjector> faults_;
  std::atomic<std::uint64_t> unkeyed_frames_{0};  // fault key of the next unkeyed frame
  std::mutex write_mu_;  // request frames are written atomically, back-to-back

  std::mutex pending_mu_;
  std::unordered_map<std::uint64_t, PendingSlot> pending_;
  std::map<std::uint64_t, BatchRange> batch_ranges_;  // guarded by pending_mu_
  std::uint64_t next_id_ = 1;        // guarded by pending_mu_
  bool broken_ = false;              // guarded by pending_mu_
  std::exception_ptr break_reason_;  // guarded by pending_mu_

  std::thread reader_;
};

}  // namespace hammer::rpc
