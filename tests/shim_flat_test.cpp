// Property tests for the compiled flat fast-path tables: FlatConfig must
// agree with the reference RangeTable/ShimConfig lookup on every input —
// random hashes, the extremes of the hash space, and every range edge.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "shim/config.h"
#include "shim/flat_table.h"
#include "shim/shim.h"
#include "util/rng.h"

namespace nwlb::shim {
namespace {

/// Builds a randomized config: a random subset of classes, each with a
/// random partition of the hash space into process/replicate/ignore
/// segments (explicit gaps included), sometimes with distinct per-direction
/// tables.
ShimConfig random_config(nwlb::util::Rng& rng) {
  ShimConfig config;
  const int classes = static_cast<int>(rng.range(1, 40));
  for (int c = 0; c < classes; ++c) {
    if (rng.bernoulli(0.2)) continue;  // Class not handled at this node.
    const bool split_directions = rng.bernoulli(0.3);
    const int num_dirs = split_directions ? 2 : 1;
    for (int d = 0; d < num_dirs; ++d) {
      RangeTable table;
      std::uint64_t cursor = 0;
      while (cursor < kHashSpace) {
        // Random segment length; bias toward both tiny and huge segments.
        const std::uint64_t max_len = kHashSpace - cursor;
        std::uint64_t len = rng.bernoulli(0.3)
                                ? rng.below(1024) + 1
                                : rng.below(max_len) + 1;
        if (len > max_len) len = max_len;
        const double coin = rng.uniform();
        if (coin < 0.4)
          table.add(HashRange{cursor, cursor + len, Action::process()});
        else if (coin < 0.7)
          table.add(HashRange{cursor, cursor + len,
                              Action::replicate(static_cast<int>(rng.below(16)))});
        // else: leave a gap (implicit ignore).
        cursor += len;
      }
      if (split_directions)
        config.set_table(c, d == 0 ? nids::Direction::kForward : nids::Direction::kReverse,
                         table);
      else
        config.set_table(c, table);
    }
  }
  return config;
}

TEST(FlatConfig, MatchesReferenceLookupOnRandomInputs) {
  nwlb::util::Rng rng(0xf1a7);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ShimConfig config = random_config(rng);
    const FlatConfig flat(config);
    const int max_class = 45;  // Beyond any installed class id.
    for (int i = 0; i < 2500; ++i) {
      const int class_id = static_cast<int>(rng.range(-2, max_class));
      const auto dir =
          rng.bernoulli(0.5) ? nids::Direction::kForward : nids::Direction::kReverse;
      const auto hash = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(flat.lookup(class_id, dir, hash), config.lookup(class_id, dir, hash))
          << "trial=" << trial << " class=" << class_id << " hash=" << hash;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 100000);
}

TEST(FlatConfig, MatchesReferenceAtExtremesAndRangeEdges) {
  nwlb::util::Rng rng(0xed6e);
  for (int trial = 0; trial < 25; ++trial) {
    const ShimConfig config = random_config(rng);
    const FlatConfig flat(config);
    config.for_each_table([&](int class_id, nids::Direction dir, const RangeTable& table) {
      std::vector<std::uint32_t> probes{0u, 0xffffffffu};
      for (const HashRange& range : table.ranges()) {
        probes.push_back(static_cast<std::uint32_t>(range.begin));
        if (range.begin > 0)
          probes.push_back(static_cast<std::uint32_t>(range.begin - 1));
        probes.push_back(static_cast<std::uint32_t>(range.end - 1));
        if (range.end < kHashSpace)
          probes.push_back(static_cast<std::uint32_t>(range.end));
      }
      for (const std::uint32_t hash : probes)
        ASSERT_EQ(flat.lookup(class_id, dir, hash), config.lookup(class_id, dir, hash))
            << "trial=" << trial << " class=" << class_id << " hash=" << hash;
    });
  }
}

TEST(FlatConfig, EmptyAndMissingClassesIgnore) {
  const FlatConfig empty{ShimConfig{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.lookup(0, nids::Direction::kForward, 123).kind, Action::Kind::kIgnore);

  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace, Action::process()});
  config.set_table(7, nids::Direction::kForward, table);
  const FlatConfig flat(config);
  EXPECT_FALSE(flat.empty());
  // Installed class/direction processes; everything else ignores.
  EXPECT_EQ(flat.lookup(7, nids::Direction::kForward, 0).kind, Action::Kind::kProcess);
  EXPECT_EQ(flat.lookup(7, nids::Direction::kReverse, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(6, nids::Direction::kForward, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(-1, nids::Direction::kForward, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(1 << 20, nids::Direction::kForward, 0).kind,
            Action::Kind::kIgnore);
}

/// A random TCP 5-tuple.
nids::FiveTuple random_tuple(nwlb::util::Rng& rng) {
  nids::FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(rng());
  t.dst_ip = static_cast<std::uint32_t>(rng());
  t.src_port = static_cast<std::uint16_t>(rng());
  t.dst_port = static_cast<std::uint16_t>(rng());
  t.protocol = 6;
  return t;
}

TEST(Shim, ScalarDecideMatchesTableAndCountsPackets) {
  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace / 2, Action::process()});
  table.add(HashRange{kHashSpace / 2, kHashSpace, Action::replicate(3)});
  config.set_table(0, table);
  Shim shim(1);
  shim.install(config);  // nwlb-lint: allow(raw-shim-install)

  nwlb::util::Rng rng(5);
  ShimStats scalar_stats;
  for (int i = 0; i < 256; ++i) {
    const nids::FiveTuple tuple = random_tuple(rng);
    const Decision d = shim.decide(0, tuple, nids::Direction::kForward, scalar_stats);
    ASSERT_EQ(d.hash, hash_tuple(tuple));
    ASSERT_EQ(d.action, config.lookup(0, nids::Direction::kForward, d.hash));
  }
  EXPECT_EQ(scalar_stats.packets_seen, 256u);
}

TEST(Shim, DecideHashedRepeatMatchesScalarDecides) {
  // The replay decides a session direction once and accounts its packets
  // arithmetically; that must equal deciding every packet on its own.
  nwlb::util::Rng rng(0x2e9ea7);
  for (int config_trial = 0; config_trial < 5; ++config_trial) {
    const ShimConfig config = random_config(rng);
    Shim shim(0);
    shim.install(config);  // nwlb-lint: allow(raw-shim-install)
    for (int trial = 0; trial < 200; ++trial) {
      // The first trials pin the edges: an unknown (negative) class id and
      // an empty run.
      const int class_id = trial == 0 ? -1 : static_cast<int>(rng.range(-1, 45));
      const std::uint64_t count = trial == 1 ? 0 : rng.below(40);
      const auto dir =
          rng.bernoulli(0.5) ? nids::Direction::kForward : nids::Direction::kReverse;
      const nids::FiveTuple tuple = random_tuple(rng);
      const std::uint32_t hash = hash_tuple(tuple);

      ShimStats scalar_stats;
      Action scalar_action = shim.flat().lookup(class_id, dir, hash);
      for (std::uint64_t k = 0; k < count; ++k) {
        const Decision d = shim.decide(class_id, tuple, dir, scalar_stats);
        ASSERT_EQ(d.hash, hash);
        scalar_action = d.action;
      }
      ShimStats repeat_stats;
      const Action action =
          shim.decide_hashed_repeat(class_id, dir, hash, count, repeat_stats);
      ASSERT_EQ(action, scalar_action) << "class=" << class_id << " hash=" << hash;
      EXPECT_EQ(repeat_stats.packets_seen, scalar_stats.packets_seen);
      EXPECT_EQ(repeat_stats.decided_process, scalar_stats.decided_process);
      EXPECT_EQ(repeat_stats.decided_replicate, scalar_stats.decided_replicate);
      EXPECT_EQ(repeat_stats.decided_ignore, scalar_stats.decided_ignore);
      EXPECT_EQ(repeat_stats.replicated_bytes, scalar_stats.replicated_bytes);
    }
  }
}

}  // namespace
}  // namespace nwlb::shim
