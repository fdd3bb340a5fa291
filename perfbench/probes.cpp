#include "probes.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "nids/node.h"
#include "nids/scan.h"
#include "nids/session.h"
#include "shim/hash.h"
#include "shim/tunnel.h"

namespace nwlb::perfbench {

namespace {

/// One session direction of the window and where its packets live.
struct DirectionRun {
  const sim::SessionSpec* session = nullptr;
  nids::Direction direction = nids::Direction::kForward;
  std::size_t first_packet = 0;
  int packets = 0;
  std::size_t first_action = 0;  // Index of its first on-path decision.
};

struct FrameJob {
  int from = 0;
  int to = 0;
  std::size_t packet = 0;
};

struct Delivery {
  int node = 0;
  nids::PacketView packet;
};

const topo::Path& path_of(const core::ProblemInput& input, const DirectionRun& run) {
  const auto& cls = input.classes[static_cast<std::size_t>(run.session->class_index)];
  return run.direction == nids::Direction::kForward ? cls.fwd_path : cls.rev_path;
}

}  // namespace

DataPlaneCosts probe_data_plane(const core::ProblemInput& input,
                                std::span<const shim::FlatConfig> tables,
                                std::span<const char> mirror_down,
                                const std::shared_ptr<const nids::SignatureEngine>& engine,
                                std::span<const sim::SessionSpec> sessions,
                                const sim::TraceGenerator& generator, int shards,
                                SpanRecorder& spans, std::uint64_t window) {
  DataPlaneCosts costs;
  const auto processing = static_cast<std::size_t>(input.num_processing_nodes());

  // Layout (untimed): every session direction with packets, in replay order.
  std::vector<DirectionRun> runs;
  runs.reserve(sessions.size() * 2);
  std::size_t packet_total = 0, payload_total = 0, action_total = 0;
  for (const sim::SessionSpec& s : sessions) {
    for (const nids::Direction dir : {nids::Direction::kForward, nids::Direction::kReverse}) {
      const int packets = dir == nids::Direction::kForward ? s.fwd_packets : s.rev_packets;
      if (packets <= 0) continue;
      DirectionRun run{&s, dir, packet_total, packets, action_total};
      packet_total += static_cast<std::size_t>(packets);
      payload_total += static_cast<std::size_t>(packets) *
                       static_cast<std::size_t>(std::max(s.payload_bytes, 0));
      action_total += path_of(input, run).size();
      runs.push_back(run);
    }
  }

  std::vector<char> payloads(payload_total);
  std::vector<nids::PacketView> packets(packet_total);
  {
    SpanRecorder::Scope span(spans, "sim.packet_into", window);
    std::size_t offset = 0;
    for (const DirectionRun& run : runs) {
      const auto bytes = static_cast<std::size_t>(std::max(run.session->payload_bytes, 0));
      for (int k = 0; k < run.packets; ++k) {
        packets[run.first_packet + static_cast<std::size_t>(k)] = generator.packet_into(
            *run.session, k, run.direction, std::span<char>(payloads.data() + offset, bytes));
        offset += bytes;
      }
    }
    costs.packet_into_s = span.end();
  }
  costs.packets = packet_total;

  std::vector<std::uint32_t> hashes(runs.size());
  {
    SpanRecorder::Scope span(spans, "shim.hash_tuple", window);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const nids::FiveTuple& tuple = runs[i].session->tuple;
      hashes[i] = shim::hash_tuple(runs[i].direction == nids::Direction::kForward
                                       ? tuple
                                       : tuple.reversed());
    }
    costs.hash_s = span.end();
  }
  costs.session_directions = runs.size();

  std::vector<shim::Action> actions(action_total);
  {
    SpanRecorder::Scope span(spans, "shim.decide", window);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const DirectionRun& run = runs[i];
      const topo::Path& path = path_of(input, run);
      for (std::size_t p = 0; p < path.size(); ++p)
        actions[run.first_action + p] = tables[static_cast<std::size_t>(path[p])].lookup(
            run.session->class_index, run.direction, hashes[i]);
    }
    costs.decide_s = span.end();
  }
  costs.lookups = action_total;

  // Fan the decisions out to packets (untimed), in replay's per-packet,
  // per-path-position order.
  std::vector<Delivery> deliveries;
  std::vector<FrameJob> jobs;
  deliveries.reserve(packet_total);
  for (const DirectionRun& run : runs) {
    const topo::Path& path = path_of(input, run);
    for (int k = 0; k < run.packets; ++k) {
      const std::size_t packet = run.first_packet + static_cast<std::size_t>(k);
      for (std::size_t p = 0; p < path.size(); ++p) {
        const shim::Action action = actions[run.first_action + p];
        if (action.kind == shim::Action::Kind::kProcess)
          deliveries.push_back({path[p], packets[packet]});
        else if (action.kind == shim::Action::Kind::kReplicate &&
                 mirror_down[static_cast<std::size_t>(action.mirror)] == 0)
          jobs.push_back({path[p], action.mirror, packet});
      }
    }
  }

  std::vector<std::size_t> frame_offsets(jobs.size() + 1, 0);
  for (std::size_t f = 0; f < jobs.size(); ++f)
    frame_offsets[f + 1] =
        frame_offsets[f] + shim::TunnelSender::wire_size(packets[jobs[f].packet].payload.size());
  std::vector<std::byte> frames(frame_offsets.back());
  std::vector<std::optional<shim::TunnelSender>> senders(processing * processing);
  {
    SpanRecorder::Scope span(spans, "shim.encap", window);
    for (std::size_t f = 0; f < jobs.size(); ++f) {
      const FrameJob& job = jobs[f];
      std::optional<shim::TunnelSender>& sender =
          senders[static_cast<std::size_t>(job.from) * processing +
                  static_cast<std::size_t>(job.to)];
      if (!sender) sender.emplace(job.from, job.to);
      sender->encapsulate_into(packets[job.packet],
                               std::span<std::byte>(frames.data() + frame_offsets[f],
                                                    frame_offsets[f + 1] - frame_offsets[f]));
    }
    costs.encap_s = span.end();
  }
  costs.frames = jobs.size();
  costs.frame_bytes = frames.size();

  std::vector<shim::TunnelReceiver> receivers;
  receivers.reserve(processing);
  for (std::size_t j = 0; j < processing; ++j) receivers.emplace_back(static_cast<int>(j));
  {
    SpanRecorder::Scope span(spans, "shim.decap", window);
    for (std::size_t f = 0; f < jobs.size(); ++f) {
      const auto to = static_cast<std::size_t>(jobs[f].to);
      if (auto delivered = receivers[to].try_decapsulate_view(std::span<const std::byte>(
              frames.data() + frame_offsets[f], frame_offsets[f + 1] - frame_offsets[f])))
        deliveries.push_back({jobs[f].to, *delivered});
    }
    costs.decap_s = span.end();
  }
  costs.processed_packets = deliveries.size();

  {
    SpanRecorder::Scope span(spans, "nids.signature", window);
    for (const Delivery& d : deliveries) {
      costs.matches += engine->count_matches(d.packet.payload);
      costs.signature_bytes += d.packet.payload.size();
    }
    costs.signature_s = span.end();
  }

  // replay() sizes each shard's per-node tables from the shard's share of
  // the window; a one-shard run sizes them for the whole window.
  const std::size_t used_shards =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::max(shards, 1)), 1,
                              std::max<std::size_t>(sessions.size(), 1));
  const auto per_node = [&](std::size_t shard_sessions) {
    return shard_sessions * 3 / std::max<std::size_t>(processing, 1) + 64;
  };
  const std::size_t window_per_node = per_node(sessions.size() + 1);

  std::vector<nids::ScanDetector> scans(processing);
  std::vector<nids::SessionTracker> trackers(processing);
  for (std::size_t j = 0; j < processing; ++j) {
    scans[j].reserve(window_per_node, window_per_node);
    trackers[j].reserve(window_per_node);
  }
  {
    SpanRecorder::Scope span(spans, "nids.scan_observe", window);
    for (const Delivery& d : deliveries) {
      const nids::FiveTuple initiator = d.packet.direction == nids::Direction::kForward
                                            ? d.packet.tuple
                                            : d.packet.tuple.reversed();
      scans[static_cast<std::size_t>(d.node)].observe(initiator.src_ip, initiator.dst_ip);
    }
    costs.scan_s = span.end();
  }
  {
    SpanRecorder::Scope span(spans, "nids.session_observe", window);
    for (const Delivery& d : deliveries)
      trackers[static_cast<std::size_t>(d.node)].observe(d.packet.session_id,
                                                         d.packet.direction);
    costs.session_s = span.end();
  }

  std::vector<nids::NidsNode> shard_nodes;
  shard_nodes.reserve(used_shards * processing);
  for (std::size_t n = 0; n < used_shards * processing; ++n)
    shard_nodes.emplace_back("n" + std::to_string(n % processing), engine);
  const std::size_t shard_per_node = per_node(sessions.size() / used_shards + 1);
  {
    SpanRecorder::Scope span(spans, "nids.node_reserve", window);
    for (nids::NidsNode& node : shard_nodes) node.reserve(shard_per_node);
    costs.reserve_s = span.end();
  }
  costs.reserves = shard_nodes.size();

  std::vector<nids::NidsNode> nodes;
  nodes.reserve(processing);
  for (std::size_t j = 0; j < processing; ++j) {
    nodes.emplace_back("n" + std::to_string(j), engine);
    nodes.back().reserve(window_per_node);
  }
  std::uint64_t process_matches = 0;
  {
    SpanRecorder::Scope span(spans, "nids.node_process", window);
    for (const Delivery& d : deliveries)
      process_matches += nodes[static_cast<std::size_t>(d.node)].process(d.packet);
    costs.process_s = span.end();
  }
  costs.process_agrees = process_matches == costs.matches;
  return costs;
}

}  // namespace nwlb::perfbench
