// A NIDS node instance: the off-the-shelf analysis stack (signature engine,
// scan detector, stateful session tracker) that the shim layer feeds.  One
// instance runs per PoP in the replay emulation; its accumulated work units
// are the per-node "CPU instructions" of Fig. 10.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nids/packet.h"
#include "nids/scan.h"
#include "nids/session.h"
#include "nids/signature.h"

namespace nwlb::nids {

/// Work-unit weights of the different analyses; chosen so signature
/// matching (per byte) dominates, as measured for Snort/Bro-class systems.
struct CostModel {
  double per_packet = 20.0;          // Capture + decode.
  double per_signature_byte = 1.0;   // Aho-Corasick transition.
  double per_scan_update = 15.0;     // Hash-set insertion.
  double per_session_update = 10.0;  // Session table touch.
};

class NidsNode {
 public:
  /// `rules` defaults to the built-in corpus when empty.
  explicit NidsNode(std::string name, std::vector<std::string> rules = {},
                    CostModel cost = {});

  /// Shares an already-compiled signature engine instead of building one —
  /// the parallel replay creates one NidsNode per (worker, node) and the
  /// automaton is immutable, so all of them reference a single instance.
  NidsNode(std::string name, std::shared_ptr<const SignatureEngine> engine,
           CostModel cost = {});

  /// Full analysis of one packet (signature + scan + session tracking).
  /// Returns the number of signature matches in the payload.
  std::size_t process(const PacketView& packet);
  std::size_t process(const Packet& packet) { return process(PacketView(packet)); }

  /// Exactly process() on each packet in turn — same matches, detector
  /// state, work units and packet count — but the payloads go through
  /// SignatureEngine::count_matches_batch, whose interleaved automaton
  /// walks hide the per-byte load latency.  Replay hands each on-path
  /// engine all packets of a session direction in one call.  Returns the
  /// total number of signature matches.
  std::size_t process_batch(std::span<const PacketView> packets);

  /// Pre-sizes the detector state for the expected epoch volume so the
  /// per-packet path never rehashes (replay calls this on every node of
  /// each of its shards at the start of a window; capacity only grows).
  void reserve(std::size_t expected_sessions);

  /// Forgets every observation and zeroes the work counters, keeping the
  /// detector tables' capacity — how replay reuses its shards' engines
  /// from one window to the next.
  void clear();

  const std::string& name() const { return name_; }

  /// Total work units consumed so far under the cost model.
  double work_units() const { return work_; }
  void reset_work_units();

  const ScanDetector& scan_detector() const { return scan_; }
  ScanDetector& scan_detector() { return scan_; }
  const SessionTracker& session_tracker() const { return sessions_; }
  const SignatureEngine& signature_engine() const { return *signatures_; }

  std::uint64_t packets_processed() const { return packets_; }

 private:
  /// Scan, session and work accounting of one analysed packet.
  void account(const PacketView& packet);

  std::string name_;
  // The automaton is large (dense transitions); shared_ptr lets many nodes
  // share one compiled rule set, as NIDS cluster deployments do.
  std::shared_ptr<const SignatureEngine> signatures_;
  ScanDetector scan_;
  SessionTracker sessions_;
  CostModel cost_;
  double work_ = 0.0;
  std::uint64_t packets_ = 0;
};

}  // namespace nwlb::nids
