// NidsNode::process_batch must leave a node exactly as the same packets
// fed one at a time through process() would: same match total, work
// units, packet count, scan report and covered sessions.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nids/node.h"
#include "nids/signature.h"
#include "util/rng.h"

namespace nwlb::nids {
namespace {

/// Owned packets plus views over them, as replay hands them to a node.
struct Batch {
  std::vector<Packet> owned;
  std::vector<PacketView> views;

  void add(Packet packet) { owned.push_back(std::move(packet)); }
  std::span<const PacketView> span() {
    views.clear();
    for (const Packet& packet : owned) views.emplace_back(packet);
    return views;
  }
};

/// A packet of `bytes` filler bytes; with probability 1/3 one corpus
/// signature is planted somewhere in it.
Packet make_packet(util::Rng& rng, const std::vector<std::string>& rules,
                   std::uint64_t session, Direction direction, std::size_t bytes) {
  Packet p;
  p.session_id = session;
  p.direction = direction;
  p.tuple = FiveTuple{0x0a000000u | static_cast<std::uint32_t>(session % 7),
                      0x0a010000u | static_cast<std::uint32_t>(session % 11),
                      static_cast<std::uint16_t>(1024 + session), 80, 6};
  if (direction == Direction::kReverse) p.tuple = p.tuple.reversed();
  p.payload.resize(bytes);
  for (char& c : p.payload) c = static_cast<char>('a' + rng.below(26));
  const std::string& sig = rules[rng.below(rules.size())];
  if (rng.below(3) == 0 && sig.size() <= bytes)
    p.payload.replace(rng.below(bytes - sig.size() + 1), sig.size(), sig);
  return p;
}

void expect_same_node(const NidsNode& a, const NidsNode& b) {
  EXPECT_EQ(a.work_units(), b.work_units());
  EXPECT_EQ(a.packets_processed(), b.packets_processed());
  EXPECT_EQ(a.scan_detector().report(), b.scan_detector().report());
  EXPECT_EQ(a.scan_detector().work_units(), b.scan_detector().work_units());
  EXPECT_EQ(a.session_tracker().covered_ids(), b.session_tracker().covered_ids());
  EXPECT_EQ(a.session_tracker().total_sessions(), b.session_tracker().total_sessions());
}

/// Feeds `batch` to one node as a batch and to another packet by packet.
void expect_batch_equals_sequence(std::span<const PacketView> batch,
                                  const std::shared_ptr<const SignatureEngine>& engine) {
  NidsNode batched("batched", engine);
  NidsNode sequential("sequential", engine);
  const std::size_t batch_matches = batched.process_batch(batch);
  std::size_t sequential_matches = 0;
  for (const PacketView& packet : batch) sequential_matches += sequential.process(packet);
  EXPECT_EQ(batch_matches, sequential_matches);
  expect_same_node(batched, sequential);
}

TEST(ProcessBatch, EqualsProcessForEveryBatchSizeAndDirection) {
  const auto engine = std::make_shared<const SignatureEngine>(SignatureEngine::default_rules());
  const std::vector<std::string> rules = SignatureEngine::default_rules();
  util::Rng rng(17);
  std::size_t total_matches = 0;
  for (const Direction direction : {Direction::kForward, Direction::kReverse}) {
    for (std::size_t n = 0; n <= 13; ++n) {
      for (const std::size_t bytes : {std::size_t{0}, std::size_t{16}, std::size_t{200}}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " bytes=" << bytes);
        // One session direction: every packet has the same length.
        Batch batch;
        for (std::size_t k = 0; k < n; ++k)
          batch.add(make_packet(rng, rules, 40 + n, direction, bytes));
        expect_batch_equals_sequence(batch.span(), engine);
        for (const PacketView& p : batch.views) total_matches += engine->count_matches(p.payload);
      }
    }
  }
  EXPECT_GT(total_matches, 0u) << "no signature was planted";
}

TEST(ProcessBatch, EqualsProcessOnMixedLengthsSessionsAndDirections) {
  const auto engine = std::make_shared<const SignatureEngine>(SignatureEngine::default_rules());
  const std::vector<std::string> rules = SignatureEngine::default_rules();
  util::Rng rng(99);
  for (std::size_t n = 0; n <= 13; ++n) {
    SCOPED_TRACE(n);
    Batch batch;
    for (std::size_t k = 0; k < n; ++k)
      batch.add(make_packet(rng, rules, 1 + rng.below(4),
                            rng.below(2) == 0 ? Direction::kForward : Direction::kReverse,
                            rng.below(300)));
    expect_batch_equals_sequence(batch.span(), engine);
  }
  // Longer than one internal chunk.
  Batch big;
  for (std::size_t k = 0; k < 40; ++k)
    big.add(make_packet(rng, rules, k % 5, k % 3 == 0 ? Direction::kReverse : Direction::kForward,
                        rng.below(120)));
  expect_batch_equals_sequence(big.span(), engine);
}

TEST(ProcessBatch, ClearReturnsANodeToItsFreshState) {
  const auto engine = std::make_shared<const SignatureEngine>(SignatureEngine::default_rules());
  const std::vector<std::string> rules = SignatureEngine::default_rules();
  util::Rng rng(5);
  Batch first, second;
  for (std::size_t k = 0; k < 30; ++k) {
    first.add(make_packet(rng, rules, k, Direction::kForward, 64));
    second.add(make_packet(rng, rules, k / 2, k % 2 ? Direction::kReverse : Direction::kForward,
                           64));
  }
  NidsNode reused("reused", engine);
  reused.reserve(8);
  reused.process_batch(first.span());
  ASSERT_GT(reused.work_units(), 0.0);
  reused.clear();
  EXPECT_EQ(reused.work_units(), 0.0);
  EXPECT_EQ(reused.packets_processed(), 0u);
  EXPECT_EQ(reused.scan_detector().num_sources(), 0u);
  EXPECT_EQ(reused.session_tracker().total_sessions(), 0u);

  NidsNode fresh("fresh", engine);
  EXPECT_EQ(reused.process_batch(second.span()), fresh.process_batch(second.span()));
  expect_same_node(reused, fresh);
}

}  // namespace
}  // namespace nwlb::nids
