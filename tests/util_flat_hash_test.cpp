// util::U64FlatMap: behaves exactly like unordered_map for the subset of
// operations the NIDS hot paths use, across random workloads and rehashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/flat_hash.h"
#include "util/rng.h"

namespace nwlb::util {
namespace {

TEST(FlatHash, InsertFindRoundTrip) {
  U64FlatMap<std::uint32_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  map[42] = 7;
  map[0] = 1;
  map[~0ull] = 2;
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7u);
  EXPECT_EQ(*map.find(0), 1u);
  EXPECT_EQ(*map.find(~0ull), 2u);
  EXPECT_EQ(map.find(43), nullptr);
  map[42] = 9;  // Overwrite, not duplicate.
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(42), 9u);
}

TEST(FlatHash, DefaultInsertsValueInitialized) {
  U64FlatMap<std::uint64_t> map;
  EXPECT_EQ(map[123], 0u);
  map[123] += 5;
  map[123] += 5;
  EXPECT_EQ(map[123], 10u);
}

TEST(FlatHash, MatchesUnorderedMapUnderRandomWorkload) {
  Rng rng(0x5eedf00d);
  U64FlatMap<std::uint32_t> flat;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (int i = 0; i < 50000; ++i) {
    // Narrow key range forces collisions; wide ops force rehashes.
    const std::uint64_t key = rng() % 8192;
    if (rng() % 4 == 0) {
      const auto* found = flat.find(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    } else {
      const auto value = static_cast<std::uint32_t>(rng());
      flat[key] = value;
      reference[key] = value;
    }
  }
  EXPECT_EQ(flat.size(), reference.size());
  std::size_t visited = 0;
  flat.for_each([&](std::uint64_t key, std::uint32_t value) {
    ++visited;
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatHash, ReservePreventsRehash) {
  U64FlatMap<std::uint8_t> map;
  map.reserve(10000);
  for (std::uint64_t k = 0; k < 10000; ++k) map[k] = 1;
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) ASSERT_NE(map.find(k), nullptr);
}

TEST(FlatHash, ClearEmptiesButKeepsWorking) {
  U64FlatMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = static_cast<std::uint32_t>(k);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  map[5] = 50;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(5), 50u);
}

TEST(FlatHash, ClearedEntriesNeverReappear) {
  // clear() retires slots by epoch, leaving their bytes behind: across many
  // clear/insert rounds over overlapping key sets, only the current
  // round's keys may be found, iterated or counted.
  U64FlatMap<std::uint32_t> map;
  map.reserve(64);
  for (std::uint64_t round = 0; round < 50; ++round) {
    map.clear();
    for (std::uint64_t k = round; k < round + 40; ++k) map[k * 7] += static_cast<std::uint32_t>(round);
    EXPECT_EQ(map.size(), 40u);
    std::size_t visited = 0;
    map.for_each([&](std::uint64_t key, std::uint32_t value) {
      ++visited;
      EXPECT_GE(key, round * 7);
      EXPECT_EQ(value, round) << "a value survived clear()";
    });
    EXPECT_EQ(visited, 40u);
    if (round > 0) {
      EXPECT_EQ(map.find((round - 1) * 7), nullptr);
    }
    EXPECT_EQ(map.find((round + 40) * 7), nullptr);
  }
}

TEST(FlatHash, SequentialKeysSpreadWithoutQuadraticProbing) {
  // Session ids are sequential; mix64 must spread them so clustering does
  // not degenerate.  Sanity: a big sequential insert stays fast and exact.
  U64FlatMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 100000; ++k) map[k] = static_cast<std::uint32_t>(k * 3);
  EXPECT_EQ(map.size(), 100000u);
  for (std::uint64_t k = 0; k < 100000; k += 997)
    EXPECT_EQ(*map.find(k), static_cast<std::uint32_t>(k * 3));
}

}  // namespace
}  // namespace nwlb::util
