// Isolated data-plane layer probes for the traced benchmark run.
//
// probe_data_plane() takes one replay window's actual inputs — the same
// sessions, trace generator and compiled shim tables the simulator ran —
// and pushes them through each data-plane layer's public function on its
// own, one layer at a time, under a span per layer:
//
//   sim.packet_into       TraceGenerator::packet_into, per packet
//   shim.hash_tuple       shim::hash_tuple, per session-direction
//   shim.decide           FlatConfig::lookup, per on-path shim per direction
//   shim.encap / decap    TunnelSender::encapsulate_into and
//                         TunnelReceiver::try_decapsulate_view on the
//                         packets the shims replicate
//   nids.signature        SignatureEngine::count_matches, per processed packet
//   nids.scan_observe     ScanDetector::observe, per processed packet
//   nids.session_observe  SessionTracker::observe, per processed packet
//   nids.node_reserve     NidsNode::reserve at replay's per-node size
//   nids.node_process     NidsNode::process, per processed packet
//
// A "processed packet" is one NidsNode::process call the replay makes: a
// packet a shim keeps locally, or a replicated packet after decapsulation
// at its mirror.  With no injected failures the probe's processed-packet
// count and signature-match total equal the window's ReplayStats deltas,
// which the benchmark checks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/problem.h"
#include "nids/signature.h"
#include "shim/flat_table.h"
#include "sim/trace.h"
#include "spans.h"

namespace nwlb::perfbench {

/// Seconds spent in, and calls made to, each layer for one window.
struct DataPlaneCosts {
  double packet_into_s = 0.0;
  std::uint64_t packets = 0;
  double hash_s = 0.0;
  std::uint64_t session_directions = 0;
  double decide_s = 0.0;
  std::uint64_t lookups = 0;
  double encap_s = 0.0;
  double decap_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  double signature_s = 0.0;
  std::uint64_t signature_bytes = 0;
  double scan_s = 0.0;
  double session_s = 0.0;
  double process_s = 0.0;
  std::uint64_t processed_packets = 0;
  std::uint64_t matches = 0;
  double reserve_s = 0.0;
  std::uint64_t reserves = 0;
  /// NidsNode::process found as many signature matches as count_matches.
  bool process_agrees = true;

  /// Summed time of the layers a replay runs one after another.  The
  /// signature, scan and session probes time parts of NidsNode::process
  /// and are left out so no work is counted twice.
  double total_s() const {
    return packet_into_s + hash_s + decide_s + encap_s + decap_s + process_s + reserve_s;
  }
};

/// Runs one window through every data-plane layer in isolation (see file
/// comment).  `tables` holds the compiled FlatConfig of every PoP for the
/// generation the window rode; `mirror_down` flags processing nodes the
/// shims stop tunneling to; `shards` is the shard count replay() used.
DataPlaneCosts probe_data_plane(const core::ProblemInput& input,
                                std::span<const shim::FlatConfig> tables,
                                std::span<const char> mirror_down,
                                const std::shared_ptr<const nids::SignatureEngine>& engine,
                                std::span<const sim::SessionSpec> sessions,
                                const sim::TraceGenerator& generator, int shards,
                                SpanRecorder& spans, std::uint64_t window);

}  // namespace nwlb::perfbench
