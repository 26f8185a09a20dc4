// rpc::ClientConfig — the one options struct for the client call surface.
//
// Before this existed, configuring a client meant threading three separate
// ad-hoc pieces through every layer: rpc::CallOptions (per-call deadline),
// rpc::RetryPolicy, and transport knobs hard-coded at each
// TcpChannel construction site. ClientConfig collapses
// them into one value that flows unchanged through make_adapter,
// ChannelPool, DeployedChain::make_adapters/make_cluster and the SutCluster
// builders — and adds the codec preference the wire redesign introduces.
//
// ClientConfig is the ONLY way to configure the client surface: the legacy
// shapes that predated it (adapters::AdapterOptions, the bare TcpChannel
// timeout constructor) are gone, and every entry point takes a ClientConfig
// with a default of `{}` — binary-preferred codec, 5 s timeout, one attempt.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "rpc/jsonrpc.hpp"
#include "rpc/retry.hpp"

namespace hammer::rpc {

// Which wire codec a TcpChannel negotiates (DESIGN.md §11). Binary is
// preferred by default: the channel offers it at connect time and falls
// back to JSON-RPC 2.0 when the server does not speak it, so pointing a
// new client at an old server keeps working.
enum class CodecPreference { kBinaryPreferred, kJsonOnly };

struct ClientConfig {
  // Wire codec negotiation stance (TCP transport only; in-proc channels
  // have no wire and ignore it).
  CodecPreference codec = CodecPreference::kBinaryPreferred;

  // Per-call deadline defaults, forwarded to every RPC (CallOptions{0}
  // defers to `timeout` below).
  CallOptions call;

  // Blocking-call timeout / connect send timeout of the channel itself.
  std::chrono::milliseconds timeout{5000};

  // Adapter retry policy (default: one attempt, no retry).
  RetryPolicy retry;

  // Which SutCluster target (endpoint) the adapter built from this config
  // speaks to; the cluster builder stamps it for per-endpoint telemetry.
  std::size_t target_index = 0;
};

}  // namespace hammer::rpc
