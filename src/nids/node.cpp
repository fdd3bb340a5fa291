#include "nids/node.h"

#include <algorithm>
#include <array>
#include <string_view>

namespace nwlb::nids {

NidsNode::NidsNode(std::string name, std::vector<std::string> rules, CostModel cost)
    : name_(std::move(name)),
      signatures_(std::make_shared<const SignatureEngine>(
          rules.empty() ? SignatureEngine::default_rules() : std::move(rules))),
      cost_(cost) {}

NidsNode::NidsNode(std::string name, std::shared_ptr<const SignatureEngine> engine,
                   CostModel cost)
    : name_(std::move(name)), signatures_(std::move(engine)), cost_(cost) {}

std::size_t NidsNode::process(const PacketView& packet) {
  const std::size_t matches = signatures_->count_matches(packet.payload);
  account(packet);
  return matches;
}

std::size_t NidsNode::process_batch(std::span<const PacketView> packets) {
  // The scan never touches node state, so scanning a chunk first and then
  // accounting its packets in order leaves the node exactly as per-packet
  // process() calls would.
  constexpr std::size_t kChunk = 16;
  std::array<std::string_view, kChunk> payloads;
  std::array<std::size_t, kChunk> counts{};
  std::size_t matches = 0;
  for (std::size_t first = 0; first < packets.size(); first += kChunk) {
    const std::size_t n = std::min(kChunk, packets.size() - first);
    for (std::size_t i = 0; i < n; ++i) payloads[i] = packets[first + i].payload;
    signatures_->count_matches_batch(payloads.data(), counts.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      matches += counts[i];
      account(packets[first + i]);
    }
  }
  return matches;
}

void NidsNode::account(const PacketView& packet) {
  // Scan detection counts initiator -> responder contacts; reverse-direction
  // packets are attributed to the session's initiator.
  const FiveTuple initiator_view =
      packet.direction == Direction::kForward ? packet.tuple : packet.tuple.reversed();
  scan_.observe(initiator_view.src_ip, initiator_view.dst_ip);
  sessions_.observe(packet.session_id, packet.direction);
  work_ += cost_.per_packet + cost_.per_signature_byte * static_cast<double>(packet.payload.size()) +
           cost_.per_scan_update + cost_.per_session_update;
  ++packets_;
}

void NidsNode::reserve(std::size_t expected_sessions) {
  sessions_.reserve(expected_sessions);
  // Heuristic: scans dominate distinct pairs; sources are a subset.
  scan_.reserve(expected_sessions, expected_sessions);
}

void NidsNode::clear() {
  scan_.clear();
  scan_.reset_work_units();
  sessions_.clear();
  sessions_.reset_work_units();
  reset_work_units();
}

void NidsNode::reset_work_units() {
  work_ = 0.0;
  packets_ = 0;
}

}  // namespace nwlb::nids
