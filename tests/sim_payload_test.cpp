// Payload synthesis: the filler bytes replay feeds the detectors are a
// pinned function of (session id, packet index, direction).  The digest
// below was taken from the byte-at-a-time filler loop; the vector kernel
// must reproduce it, and must equal the scalar reference for every length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "util/rng.h"

namespace nwlb::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(PayloadFill, MakePacketBytesMatchPinnedDigest) {
  const topo::Topology topology = topo::make_internet2();
  const traffic::TrafficMatrix tm =
      traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11));
  const core::Scenario scenario(topology, tm);
  TraceConfig tc;
  tc.malicious_fraction = 0.2;  // Plenty of embedded signatures.
  TraceGenerator gen(scenario.classes(), tc, /*seed=*/1512);
  std::vector<SessionSpec> sessions = gen.generate(400);
  // Short, odd and long lengths around the vector width.
  for (const int bytes : {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1499, 1500}) {
    SessionSpec s = sessions[static_cast<std::size_t>(bytes) % sessions.size()];
    s.id = 90000 + static_cast<std::uint64_t>(bytes);
    s.payload_bytes = bytes;
    s.malicious = bytes % 2 == 1;
    sessions.push_back(s);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t total = 0;
  for (const SessionSpec& s : sessions) {
    for (const nids::Direction d : {nids::Direction::kForward, nids::Direction::kReverse}) {
      const int packets = d == nids::Direction::kForward ? s.fwd_packets : s.rev_packets;
      for (int k = 0; k < packets; ++k) {
        const nids::Packet p = gen.make_packet(s, k, d);
        ASSERT_EQ(p.payload.size(), static_cast<std::size_t>(s.payload_bytes));
        h = fnv1a(h, p.payload);
        total += p.payload.size();
      }
    }
  }
  EXPECT_EQ(total, 1128046u);
  EXPECT_EQ(h, 15489325403448320727ULL);
}

TEST(PayloadFill, KernelMatchesScalarReferenceForEveryLength) {
  // 12k random states; every length 0..1500 appears ~8 times.  Bytes past
  // the requested length must stay untouched (the vector kernel's tail is
  // a masked store).
  constexpr std::size_t kMax = 1500;
  constexpr std::size_t kGuard = 64;
  util::Rng rng(0xf111);
  std::vector<char> fast(kMax + kGuard), slow(kMax + kGuard);
  for (std::size_t i = 0; i < 12000; ++i) {
    const std::uint64_t state = rng();
    const std::size_t len = i % (kMax + 1);
    std::fill(fast.begin(), fast.end(), '#');
    std::fill(slow.begin(), slow.end(), '#');
    fill_payload(state, std::span<char>(fast.data(), len));
    fill_payload_scalar(state, std::span<char>(slow.data(), len));
    ASSERT_EQ(fast, slow) << "state " << state << " length " << len;
    ASSERT_EQ(fast[len], '#');
  }
}

TEST(PayloadFill, ScalarReferenceIsSplitmixModSeventeen) {
  std::uint64_t state = 0x5eed;
  std::vector<char> out(100);
  fill_payload_scalar(state, out);
  for (const char c : out) EXPECT_EQ(c, static_cast<char>('a' + util::splitmix64(state) % 17));
}

}  // namespace
}  // namespace nwlb::sim
