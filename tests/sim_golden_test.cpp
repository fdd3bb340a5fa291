// Pinned replay outputs.  Each run replays several windows through one
// simulator and compares the complete ReplayStats against a digest taken
// from the per-packet replay path, so any change to the data plane that
// moves a single counter, work unit or byte total fails here — for the
// serial run and the 4-worker run alike.  The windows include one smaller
// than the worker count, so the shard count changes between calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::sim {
namespace {

struct GoldenFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput input;
  core::Assignment assignment;
  shim::ConfigBundle bundle;

  GoldenFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(core::Architecture::kPathReplicate)),
        assignment(core::ReplicationLp(input).solve()),
        bundle(core::build_bundle(input, assignment)) {}

  ReplayStats run(const TraceConfig& trace, ReplayOptions opts, int workers,
                  const std::vector<int>& windows) {
    opts.num_workers = workers;
    ReplaySimulator sim(input, bundle, opts);
    TraceGenerator gen(input.classes, trace, /*seed=*/2012);
    for (const int sessions : windows) sim.replay(gen.generate(sessions), gen);
    return sim.stats();
  }
};

/// Every ReplayStats field, in declaration order.  Doubles are integer
/// valued (work units and byte counts), so %.17g renders them exactly.
std::string render(const ReplayStats& s) {
  std::string out;
  const auto num = [&out](const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, v);
    out += buf;
  };
  const auto vec = [&num](const char* name, const auto& values) {
    for (const auto v : values) num(name, static_cast<double>(v));
  };
  vec("node_work", s.node_work);
  vec("node_packets", s.node_packets);
  vec("link_replicated_bytes", s.link_replicated_bytes);
  num("sessions_replayed", static_cast<double>(s.sessions_replayed));
  num("packets_replayed", static_cast<double>(s.packets_replayed));
  num("tunnel_frames_sent", static_cast<double>(s.tunnel_frames_sent));
  num("tunnel_frames_dropped", static_cast<double>(s.tunnel_frames_dropped));
  num("tunnel_frames_blackholed", static_cast<double>(s.tunnel_frames_blackholed));
  num("tunnel_frames_detected_lost", static_cast<double>(s.tunnel_frames_detected_lost));
  num("tunnel_frames_malformed", static_cast<double>(s.tunnel_frames_malformed));
  num("crash_skipped_packets", static_cast<double>(s.crash_skipped_packets));
  num("fail_open_packets", static_cast<double>(s.fail_open_packets));
  num("degraded_skipped_packets", static_cast<double>(s.degraded_skipped_packets));
  num("stateful_covered", static_cast<double>(s.stateful_covered));
  num("stateful_missed", static_cast<double>(s.stateful_missed));
  num("signature_matches", static_cast<double>(s.signature_matches));
  num("decisions_process", static_cast<double>(s.decisions_process));
  num("decisions_replicate", static_cast<double>(s.decisions_replicate));
  num("decisions_ignore", static_cast<double>(s.decisions_ignore));
  num("mirror_flaps", static_cast<double>(s.mirror_flaps));
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The headline counters plus a digest of the full rendering.
struct Golden {
  std::uint64_t packets_replayed;
  std::uint64_t signature_matches;
  std::uint64_t tunnel_frames_sent;
  std::uint64_t stateful_covered;
  std::uint64_t stateful_missed;
  std::uint64_t digest;
};

void expect_golden(const ReplayStats& s, const Golden& g) {
  EXPECT_EQ(s.packets_replayed, g.packets_replayed);
  EXPECT_EQ(s.signature_matches, g.signature_matches);
  EXPECT_EQ(s.tunnel_frames_sent, g.tunnel_frames_sent);
  EXPECT_EQ(s.stateful_covered, g.stateful_covered);
  EXPECT_EQ(s.stateful_missed, g.stateful_missed);
  EXPECT_EQ(fnv1a(render(s)), g.digest) << render(s);
}

const std::vector<int> kWindows = {700, 3, 700};

TEST(ReplayGolden, ProbeTrace) {
  GoldenFixture f;
  TraceConfig probe;
  probe.scanners = 0;
  probe.min_payload = 16;
  probe.max_payload = 16;
  probe.max_packets_per_direction = 1;
  const Golden g{2806, 27, 1372, 1403, 0, 10780135897392436050ULL};
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    expect_golden(f.run(probe, {}, workers, kWindows), g);
  }
}

TEST(ReplayGolden, DefaultTrace) {
  GoldenFixture f;
  const Golden g{18697, 32, 9572, 1403, 0, 17713929024036305914ULL};
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    expect_golden(f.run(TraceConfig{}, {}, workers, kWindows), g);
  }
}

TEST(ReplayGolden, DefaultTraceWithLossFailOpenAndFailures) {
  GoldenFixture f;
  const int dc = f.input.datacenter_id();
  // A PoP crash, then a partial blackhole of the datacenter mirror that
  // the health monitor flags down, so later windows run fail-open.
  const FailureSchedule schedule =
      FailureSchedule::parse("crash 3 150 900; blackhole " + std::to_string(dc) + " 300 - 0.7");
  ReplayOptions opts;
  opts.replication_loss = 0.05;
  opts.failures = &schedule;
  opts.degrade = DegradePolicy::kFailOpen;
  opts.health.down_after = 1;
  const std::vector<int> windows = {250, 250, 2, 250, 250, 250};
  const Golden g{17305, 18, 3477, 991, 261, 6077723217553630557ULL};
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    const ReplayStats s = f.run(TraceConfig{}, opts, workers, windows);
    EXPECT_GT(s.tunnel_frames_dropped, 0u);
    EXPECT_GT(s.tunnel_frames_blackholed, 0u);
    EXPECT_GT(s.crash_skipped_packets, 0u);
    EXPECT_GT(s.fail_open_packets, 0u);
    EXPECT_GT(s.degraded_skipped_packets, 0u);
    expect_golden(s, g);
  }
}

}  // namespace
}  // namespace nwlb::sim
