// nwlb_perfbench: the repository benchmark (BENCHMARK.json at the root).
//
//   nwlb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>]
//
// Every workload runs on the Sprint topology (52 PoPs, 2652 traffic
// classes) with the program's defaults — ReplayOptions (classic replay,
// one worker, as nwlbctl runs it), ControllerOptions, lp::Options and the
// "ewma" estimator.  The estimator is anchored to the provisioned volume,
// as `nwlbctl --live` anchors it.  All inputs come from --seed.
//
// Why one replay worker: on a shared 4-vCPU host the run-to-run spread of
// replay throughput measured 0.19 at 1 worker, 0.30 at 2 and 0.62 at 4
// (IQR / median over interleaved runs), and only the first fits the
// benchmark's bounds.  The traced run still replays every window on one
// worker per hardware thread too, for sim.worker_speedup and the
// serial/parallel byte-identity check.
//
//   replay-probe    16-byte payloads, one packet per direction, replayed in
//                   consecutive 2^18-session windows (about bench/data_plane's
//                   300k-session probe call) through one long-lived simulator
//                   running the bootstrap bundle: per-session work dominates.
//   replay-payload  the default TraceConfig (Pareto payloads, scanners, 2%
//                   malicious) on the same set-up: per-byte work dominates.
//   control-drift   online::ControlLoop, closed loop, one interval after
//                   another; each interval's sessions follow a Hurst-0.8
//                   self-similar window, small enough that replay is a
//                   minority of interval time.  Run by hand only: on a
//                   shared host its timings spread past the benchmark's
//                   bounds (METRICS.md), so BENCHMARK.json leaves it out.
//   control-faults  dist::ReplicatedControlLoop (3 replicas, 5% bus drop)
//                   on the same traffic, with a datacenter crash and a
//                   leader controller_crash inside the timed part.
//
// The untraced run (--trace 0) times only calls into the program and
// prints the end-to-end metrics.  The traced run (--trace 1) first repeats
// the untraced measurement for half the time, then runs a fresh set-up for
// the other half with spans (spans.h) around every call the benchmark
// makes, feeds each window through every layer in isolation (probes.h and
// ControlProbe below), prints the per-layer metrics and writes the spans
// as a Chrome trace.  Every run checks the program's outputs and exits 1
// when a check fails.  The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/controller.h"
#include "dist/replicated_loop.h"
#include "online/estimator.h"
#include "online/loop.h"
#include "online/rollout.h"
#include "probes.h"
#include "shim/flat_table.h"
#include "shim/validate.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "spans.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "traffic/selfsimilar.h"
#include "util/rng.h"
#include "util/table.h"

#ifndef NWLB_PERFBENCH_BUILD_TYPE
#define NWLB_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NWLB_PERFBENCH_COMPILER
#define NWLB_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace nwlb;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kTopology = "Sprint";
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Sessions pre-generated for the replay workloads (see WindowSource).
constexpr int kPoolSessions = 1 << 18;
// Faults: the datacenter crashes mid-window kCrashWindow and recovers at
// the start of kRecoverWindow; replica 0 (the first leader) crashes for
// good just inside window kLeaderCrashWindow.  Runs go on at least until
// kFaultsMinWindows so every fault lands inside the timed part.
constexpr int kCrashWindow = 6;
constexpr int kRecoverWindow = 14;
constexpr int kLeaderCrashWindow = 20;
constexpr int kFaultsMinWindows = 50;

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kReplay, kDrift, kFaults };

struct Workload {
  std::string name;
  Kind kind = Kind::kReplay;
  sim::TraceConfig trace;
  int window_sessions = 0;
  bool control() const { return kind != Kind::kReplay; }
};

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "replay-probe") {
    w.trace.scanners = 0;
    w.trace.min_payload = 16;
    w.trace.max_payload = 16;
    w.trace.max_packets_per_direction = 1;
    w.window_sessions = kPoolSessions;
  } else if (name == "replay-payload") {
    w.window_sessions = 32768;
  } else if (name == "control-drift" || name == "control-faults") {
    w.kind = name == "control-drift" ? Kind::kDrift : Kind::kFaults;
    w.trace.scanners = 0;  // As nwlbctl --live.
    w.window_sessions = 1000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// The interval traffic of the control workloads: a seeded Hurst-0.8
/// burst process over the provisioning matrix.  Each window draws a fixed
/// number of sessions from the window's class mix.  The estimator rescales
/// every estimate to the provisioned volume anyway, so the mix is what
/// drives the re-solves; a fixed size keeps the long-range-dependent
/// volume from changing how much replay work a run measures from one seed
/// to the next.
class Bursts {
 public:
  static constexpr int kWindows = 1024;

  Bursts(const traffic::TrafficMatrix& tm, std::uint64_t seed)
      : traffic_(tm, kWindows, options(seed)) {}

  traffic::TrafficMatrix window(int w) const { return traffic_.window(w % kWindows); }

 private:
  static traffic::SelfSimilarOptions options(std::uint64_t seed) {
    traffic::SelfSimilarOptions o;
    o.hurst = 0.8;
    o.seed = util::derive_seed(seed, 0xb0257);
    return o;
  }
  traffic::SelfSimilarTraffic traffic_;
};

/// Consecutive windows of session specs, made from the seed.  Control
/// windows follow the burst process and are generated one at a time.
/// Replay windows are cut from a pool generated up front: sampling a
/// session walks all 2652 class weights, which would otherwise take several
/// times longer than replaying it, and replay keeps no per-session state
/// across windows, so cycling through the pool replays the same work a
/// fresh stream would.
class WindowSource {
 public:
  WindowSource(const Workload& w, const std::vector<traffic::TrafficClass>& classes,
               const Bursts* bursts, std::uint64_t seed)
      : workload_(w),
        classes_(&classes),
        bursts_(bursts),
        generator_(classes, w.trace, util::derive_seed(seed, 0x7ace)) {
    if (bursts_ == nullptr)
      for (int i = 0; i < std::max(1, kPoolSessions / w.window_sessions); ++i)
        pool_.push_back(generator_.generate(w.window_sessions));
  }

  std::span<const sim::SessionSpec> next() {
    const int w = window_++;
    if (bursts_ == nullptr) return pool_[static_cast<std::size_t>(w) % pool_.size()];
    const traffic::TrafficMatrix tm = bursts_->window(w);
    std::vector<double> weights;
    weights.reserve(classes_->size());
    for (const traffic::TrafficClass& cls : *classes_)
      weights.push_back(tm.volume(cls.ingress, cls.egress));
    current_ = generator_.generate_weighted(workload_.window_sessions, weights);
    return current_;
  }

  const sim::TraceGenerator& generator() const { return generator_; }
  int windows() const { return window_; }

 private:
  Workload workload_;
  const std::vector<traffic::TrafficClass>* classes_;
  const Bursts* bursts_;
  sim::TraceGenerator generator_;
  std::vector<std::vector<sim::SessionSpec>> pool_;
  std::vector<sim::SessionSpec> current_;
  int window_ = 0;
};

/// Fault times in global session indices; window w starts at w * window.
sim::FailureSchedule fault_schedule(int window, int datacenter) {
  const auto at = [window](int w) {
    return static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(window);
  };
  sim::FailureSchedule schedule;
  schedule.add({.kind = sim::FailureKind::kNodeCrash,
                .target = datacenter,
                .begin = at(kCrashWindow) + at(1) / 2,
                .end = at(kRecoverWindow)});
  schedule.add({.kind = sim::FailureKind::kControllerCrash,
                .target = 0,
                .begin = at(kLeaderCrashWindow) + 1});
  return schedule;
}

// ---------------------------------------------------------------------------
// Set-up: topology, controller and cold bootstrap epoch, simulator (which
// installs the bootstrap bundle) and control loop.

struct Plant {
  topo::Topology topology;
  traffic::TrafficMatrix tm;
  core::ControllerOptions copts;
  std::unique_ptr<core::Controller> controller;
  core::EpochResult bootstrap;
  core::ProblemInput input;
  std::unique_ptr<sim::ReplaySimulator> sim;
  std::unique_ptr<online::ControlLoop> loop;
  std::unique_ptr<dist::ReplicatedControlLoop> replicated;

  Plant(const Workload& w, const sim::FailureSchedule* faults)
      : topology(topo::topology_by_name(kTopology)),
        tm(traffic::gravity_matrix(topology.graph,
                                   traffic::paper_total_sessions(topology.graph.num_nodes()))) {
    controller = std::make_unique<core::Controller>(topology, tm, copts);
    bootstrap = controller->run({.tm = &tm});
    input = controller->scenario().problem(copts.architecture);
    sim::ReplayOptions ropts;
    ropts.failures = faults;
    sim = std::make_unique<sim::ReplaySimulator>(input, bootstrap.bundle, ropts);
    if (w.kind == Kind::kDrift) {
      online::ControlLoopOptions lopts;
      lopts.estimator_options.scale_to_total = tm.total();
      loop = std::make_unique<online::ControlLoop>(*controller, *sim, bootstrap.bundle, lopts);
    } else if (w.kind == Kind::kFaults) {
      dist::ReplicatedLoopOptions dopts;
      dopts.replicas = 3;
      dopts.bus.drop_probability = 0.05;
      dopts.replica.estimator.scale_to_total = tm.total();
      dopts.faults = faults;
      replicated = std::make_unique<dist::ReplicatedControlLoop>(topology, tm, copts, *sim,
                                                                 bootstrap.bundle, dopts);
      if (input.datacenter_id() != topology.graph.num_nodes() || !input.has_datacenter())
        throw std::logic_error("control-faults crashes the datacenter, and there is none");
    }
  }
};

// ---------------------------------------------------------------------------
// Helpers.

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// The highest percentile with at least ten samples above it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail_of(std::vector<double> xs) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  t.value = xs[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool stats_identical(const sim::ReplayStats& a, const sim::ReplayStats& b) {
  return same_bytes(a.node_work, b.node_work) && a.node_packets == b.node_packets &&
         same_bytes(a.link_replicated_bytes, b.link_replicated_bytes) &&
         a.sessions_replayed == b.sessions_replayed &&
         a.packets_replayed == b.packets_replayed &&
         a.tunnel_frames_sent == b.tunnel_frames_sent &&
         a.tunnel_frames_dropped == b.tunnel_frames_dropped &&
         a.tunnel_frames_blackholed == b.tunnel_frames_blackholed &&
         a.tunnel_frames_detected_lost == b.tunnel_frames_detected_lost &&
         a.tunnel_frames_malformed == b.tunnel_frames_malformed &&
         a.crash_skipped_packets == b.crash_skipped_packets &&
         a.fail_open_packets == b.fail_open_packets &&
         a.degraded_skipped_packets == b.degraded_skipped_packets &&
         a.stateful_covered == b.stateful_covered &&
         a.stateful_missed == b.stateful_missed &&
         a.signature_matches == b.signature_matches &&
         a.decisions_process == b.decisions_process &&
         a.decisions_replicate == b.decisions_replicate &&
         a.decisions_ignore == b.decisions_ignore && a.mirror_flaps == b.mirror_flaps;
}

std::vector<shim::FlatConfig> compile(const shim::ConfigBundle& bundle) {
  std::vector<shim::FlatConfig> tables;
  tables.reserve(bundle.configs.size());
  for (const shim::ShimConfig& config : bundle.configs) tables.emplace_back(config);
  return tables;
}

std::vector<char> down_flags(const sim::ReplaySimulator& sim, int processing) {
  std::vector<char> down(static_cast<std::size_t>(processing), 0);
  for (const int node : sim.down_mirrors()) down[static_cast<std::size_t>(node)] = 1;
  return down;
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Shortest JSON number that reads back as the same double.
std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Session-to-generation accounting and packet totals after a window.
void check_window(const sim::ReplaySimulator& sim, const sim::ReplayStats& before,
                  const sim::ReplayStats& after, std::span<const sim::SessionSpec> sessions,
                  std::vector<std::string>& errors, std::uint64_t& bad_sessions) {
  std::uint64_t packets = 0;
  for (const sim::SessionSpec& s : sessions)
    packets += static_cast<std::uint64_t>(std::max(s.fwd_packets, 0) + std::max(s.rev_packets, 0));
  if (after.packets_replayed - before.packets_replayed != packets)
    errors.push_back("packets_replayed grew by " +
                     std::to_string(after.packets_replayed - before.packets_replayed) +
                     ", the window holds " + std::to_string(packets));
  const sim::RolloutStats r = sim.rollout_stats();
  const std::uint64_t assigned = r.sessions_current_generation + r.sessions_draining_generation;
  if (assigned != after.sessions_replayed || r.sessions_unassigned != 0) {
    const std::uint64_t diff = assigned > after.sessions_replayed
                                   ? assigned - after.sessions_replayed
                                   : after.sessions_replayed - assigned;
    bad_sessions += diff + r.sessions_unassigned;
    errors.push_back("rollout conservation violated: current+draining=" +
                     std::to_string(assigned) + " replayed=" +
                     std::to_string(after.sessions_replayed) +
                     " unassigned=" + std::to_string(r.sessions_unassigned));
  }
}

void check_bundle(const shim::ConfigBundle& bundle, int num_classes,
                  std::vector<std::string>& errors) {
  // Every network-wide invariant is checked exactly; the bidirectional
  // consistency spot check samples 16 hashes per class instead of the
  // default 256, which alone costs several control intervals per bundle.
  shim::ConfigValidationOptions options;
  options.num_classes = num_classes;
  options.bidirectional_samples = 16;
  const std::vector<std::string> violations = shim::validate_configs(bundle.configs, options);
  if (!violations.empty())
    errors.push_back("generation " + std::to_string(bundle.generation) +
                     " fails shim::validate_configs: " + violations.front());
}

bool epoch_failed(const core::EpochResult& epoch) {
  using core::DegradedReason;
  return epoch.has_reason(DegradedReason::kLpBudgetExhausted) ||
         epoch.has_reason(DegradedReason::kLpFailed) ||
         epoch.has_reason(DegradedReason::kResolveBackoff) ||
         epoch.has_reason(DegradedReason::kNoKnownGood);
}

// ---------------------------------------------------------------------------
// Traced run: the control-plane layers in isolation.  A shadow estimator,
// controller and rollout engine take each window's real data-plane
// counters and mirror-health verdicts (read off the 1-worker replica of
// the data plane) and run estimate -> epoch -> FlatConfig compile ->
// rollout, one span per call.  The rollout target is a simulator that
// replays nothing, so the shadow never touches the measured data plane.

class ControlProbe {
 public:
  struct Epoch {
    double estimate_s = 0.0;
    double epoch_s = 0.0;
    double compile_s = 0.0;
    double rollout_s = 0.0;
    bool skipped = false;
    double moved = 0.0;
    core::EpochResult result;
  };

  ControlProbe(const topo::Topology& topology, const traffic::TrafficMatrix& tm,
               const core::ControllerOptions& copts)
      : controller_(topology, tm, copts) {
    const core::EpochResult boot = controller_.run({.tm = &tm});
    input_ = controller_.scenario().problem(copts.architecture);
    online::EstimatorOptions eopts;
    eopts.scale_to_total = tm.total();
    estimator_ = online::make_estimator("ewma", input_.classes, input_.num_pops(), eopts);
    target_ = std::make_unique<sim::ReplaySimulator>(input_, boot.bundle);
    rollout_ = std::make_unique<online::RolloutEngine>(boot.bundle);
  }

  Epoch step(const sim::ReplaySimulator& observed, const sim::TraceGenerator& generator,
             SpanRecorder& spans, std::uint64_t window) {
    Epoch e;
    traffic::TrafficMatrix tm(input_.num_pops());
    {
      SpanRecorder::Scope span(spans, "online.estimate", window);
      estimator_->observe(observed.window_class_sessions(), observed.window_class_bytes());
      tm = estimator_->estimate();
      e.estimate_s = span.end();
    }
    core::EpochRequest request{.tm = &tm};
    request.failures.down_nodes = observed.down_mirrors();
    {
      SpanRecorder::Scope span(spans, "core.epoch", window);
      e.result = controller_.run(request);
      e.epoch_s = span.end();
    }
    {
      SpanRecorder::Scope span(spans, "shim.flat_compile", window);
      const std::vector<shim::FlatConfig> tables = compile(e.result.bundle);
      e.compile_s = span.end();
    }
    {
      SpanRecorder::Scope span(spans, "online.rollout", window);
      const online::RolloutReport report = rollout_->apply(*target_, e.result.bundle);
      e.rollout_s = span.end();
      e.skipped = !report.installed;
      e.moved = report.churn.moved_fraction;
    }
    // Let the target retire the generation it just superseded.
    target_->replay({}, generator);
    return e;
  }

  int num_classes() const { return static_cast<int>(input_.classes.size()); }

 private:
  core::Controller controller_;
  core::ProblemInput input_;
  std::unique_ptr<online::Estimator> estimator_;
  std::unique_ptr<sim::ReplaySimulator> target_;
  std::unique_ptr<online::RolloutEngine> rollout_;
};

/// What the traced pass adds on top of the plant.
struct Traced {
  // Control only: a copy of the loop's data plane, whose replay is timed.
  std::unique_ptr<sim::ReplaySimulator> mirror;
  // The same windows and installs on one worker per hardware thread.
  std::unique_ptr<sim::ReplaySimulator> parallel;
  std::unique_ptr<ControlProbe> control;
  std::shared_ptr<const nids::SignatureEngine> engine;
  std::vector<shim::FlatConfig> tables;  // The generation the next window rides.
  std::uint64_t tables_generation = 0;

  // Per window.
  std::vector<double> replay_s, parallel_s, stats_s;
  std::vector<perfbench::DataPlaneCosts> costs;
  std::vector<ControlProbe::Epoch> epochs;
  std::uint64_t frames_sent = 0, packets = 0;
};

// ---------------------------------------------------------------------------
// One measurement pass over consecutive windows.

struct Pass {
  std::vector<double> window_s;  // The timed call of each window.
  std::vector<double> window_sessions;
  std::vector<double> window_bytes;  // Payload bytes.
  std::vector<double> imbalance;
  std::vector<double> churn;  // Moved hash-space fraction per install.
  std::uint64_t covered = 0, missed = 0;
  std::uint64_t attempted = 0, failed = 0;
  int leaderless = 0;
  std::uint64_t elections = 0;
  int intervals_to_new_generation = -1;
};

class Runner {
 public:
  Runner(const Workload& w, Plant& plant, WindowSource& source, SpanRecorder& spans,
         std::vector<std::string>& errors)
      : w_(w), plant_(plant), source_(source), spans_(spans), errors_(errors) {}

  Pass run(double seconds, Traced* traced) {
    Pass pass;
    sim::ReplayStats before = plant_.sim->stats();
    // Replay passes run their first window untimed, so page faults and cold
    // caches stay out of the medians.  Control passes time every interval:
    // their cold solves and window-indexed faults are part of the workload.
    const int warmup = w_.control() ? 0 : 1;
    const int first = source_.windows();
    auto start = Clock::now();
    while (since(start) < seconds || source_.windows() < first + warmup ||
           (w_.kind == Kind::kFaults && source_.windows() < kFaultsMinWindows)) {
      const auto window = static_cast<std::uint64_t>(source_.windows());
      const bool timed = static_cast<int>(window) >= first + warmup;
      if (static_cast<int>(window) == first + warmup) start = Clock::now();
      const std::span<const sim::SessionSpec> sessions = source_.next();
      const std::vector<char> down =
          down_flags(*plant_.sim, plant_.input.num_processing_nodes());
      SpanRecorder::Scope root(spans_, w_.control() ? "interval" : "window", window);

      double dt = 0.0;
      if (!w_.control()) {
        SpanRecorder::Scope span(spans_, "sim.replay", window);
        const auto t0 = Clock::now();
        plant_.sim->replay(sessions, source_.generator());
        dt = since(t0);
      } else {
        SpanRecorder::Scope span(spans_, "control.run_interval", window);
        dt = run_interval(sessions, pass, static_cast<int>(window));
      }
      double bytes = 0.0;
      for (const sim::SessionSpec& s : sessions)
        bytes += static_cast<double>(std::max(s.payload_bytes, 0)) *
                 static_cast<double>(std::max(s.fwd_packets, 0) + std::max(s.rev_packets, 0));

      sim::ReplayStats after;
      {
        SpanRecorder::Scope span(spans_, "sim.stats", window);
        after = plant_.sim->stats();
        if (traced != nullptr && !w_.control()) traced->stats_s.push_back(span.end());
      }
      std::uint64_t bad_sessions = 0;
      check_window(*plant_.sim, before, after, sessions, errors_, bad_sessions);
      if (!w_.control()) {
        pass.attempted += sessions.size();
        pass.failed += bad_sessions;
      }
      if (timed) {
        pass.window_s.push_back(dt);
        pass.window_sessions.push_back(static_cast<double>(sessions.size()));
        pass.window_bytes.push_back(bytes);
        pass.imbalance.push_back(imbalance(before, after));
        pass.covered += after.stateful_covered - before.stateful_covered;
        pass.missed += after.stateful_missed - before.stateful_missed;
      }
      if (active_generation_ > plant_.sim->active_generation())
        errors_.push_back("active generation went down");
      active_generation_ = plant_.sim->active_generation();

      if (traced != nullptr)
        trace_window(*traced, sessions, down, before, after, window, dt);
      before = std::move(after);
    }
    return pass;
  }

 private:
  /// Max ÷ mean of the window's node_work across processing nodes.
  static double imbalance(const sim::ReplayStats& before, const sim::ReplayStats& after) {
    double max = 0.0, sum = 0.0;
    for (std::size_t j = 0; j < after.node_work.size(); ++j) {
      const double work = after.node_work[j] - before.node_work[j];
      max = std::max(max, work);
      sum += work;
    }
    return sum > 0.0 ? max * static_cast<double>(after.node_work.size()) / sum : 0.0;
  }

  double run_interval(std::span<const sim::SessionSpec> sessions, Pass& pass, int window) {
    const sim::TraceGenerator& gen = source_.generator();
    ++pass.attempted;
    if (w_.kind == Kind::kDrift) {
      const auto t0 = Clock::now();
      const online::IntervalReport report = plant_.loop->run_interval(sessions, gen);
      const double dt = since(t0);
      if (epoch_failed(report.epoch)) ++pass.failed;
      if (report.rollout.generation <= last_generation_)
        errors_.push_back("controller generation went down");
      last_generation_ = report.rollout.generation;
      installed_ = report.rollout.installed;
      activate_at_ = report.rollout.activate_at;
      if (report.rollout.installed) {
        pass.churn.push_back(report.rollout.churn.moved_fraction);
        check_bundle(plant_.loop->rollout().current(), num_classes(), errors_);
      }
      return dt;
    }
    const auto t0 = Clock::now();
    const dist::ReplicatedIntervalReport report =
        plant_.replicated->run_interval(sessions, gen);
    const double dt = since(t0);
    if (report.epoch_run && epoch_failed(report.epoch)) ++pass.failed;
    if (report.generation < last_generation_)
      errors_.push_back("install frontier went down");
    installed_ = report.install_attempted && report.rollout.installed;
    activate_at_ = report.rollout.activate_at;
    if (installed_) {
      const shim::ConfigBundle& bundle = plant_.replicated->gate().rollout().current();
      if (bundle.generation <= last_installed_) ++pass.failed;  // Stale or duplicate.
      last_installed_ = std::max(last_installed_, bundle.generation);
      pass.churn.push_back(report.rollout.churn.moved_fraction);
      check_bundle(bundle, num_classes(), errors_);
    }
    if (report.leader < 0) {
      ++pass.leaderless;
    } else {
      const auto [it, fresh] = term_leader_.emplace(report.term, report.leader);
      if (!fresh && it->second != report.leader)
        errors_.push_back("two leaders in term " + std::to_string(report.term));
    }
    pass.elections = report.elections_total;
    if (window == kLeaderCrashWindow - 1) generation_before_crash_ = report.generation;
    if (window >= kLeaderCrashWindow && pass.intervals_to_new_generation < 0 &&
        report.generation > generation_before_crash_)
      pass.intervals_to_new_generation = window - kLeaderCrashWindow + 1;
    last_generation_ = report.generation;
    return dt;
  }

  int num_classes() const { return static_cast<int>(plant_.input.classes.size()); }

  const shim::ConfigBundle& current_bundle() const {
    if (w_.kind == Kind::kDrift) return plant_.loop->rollout().current();
    if (w_.kind == Kind::kFaults) return plant_.replicated->gate().rollout().current();
    return plant_.bootstrap.bundle;
  }

  void trace_window(Traced& t, std::span<const sim::SessionSpec> sessions,
                    const std::vector<char>& down, const sim::ReplayStats& before,
                    const sim::ReplayStats& after, std::uint64_t window, double replay_s) {
    const sim::TraceGenerator& gen = source_.generator();
    if (w_.control()) {
      // The loop's replay ran inside run_interval; time the same window on
      // a copy of its data plane, which must end up in the same state.
      {
        SpanRecorder::Scope span(spans_, "sim.replay", window);
        t.mirror->replay(sessions, gen);
        replay_s = span.end();
      }
      sim::ReplayStats mirrored;
      {
        SpanRecorder::Scope span(spans_, "sim.stats", window);
        mirrored = t.mirror->stats();
        t.stats_s.push_back(span.end());
      }
      if (!stats_identical(mirrored, after))
        errors_.push_back("replayed copy of the loop's data plane diverged");
    }
    t.replay_s.push_back(replay_s);
    {
      SpanRecorder::Scope span(spans_, "sim.replay_parallel", window);
      t.parallel->replay(sessions, gen);
      t.parallel_s.push_back(span.end());
    }
    if (!stats_identical(t.parallel->stats(), after))
      errors_.push_back("1-worker ReplayStats differ from the multi-worker ones");

    perfbench::DataPlaneCosts costs = perfbench::probe_data_plane(
        plant_.input, t.tables, down, t.engine, sessions, gen, plant_.sim->num_workers(),
        spans_, window);
    if (w_.kind != Kind::kFaults) {
      std::uint64_t node_packets = 0;
      for (std::size_t j = 0; j < after.node_packets.size(); ++j)
        node_packets += after.node_packets[j] - before.node_packets[j];
      if (costs.processed_packets != node_packets ||
          costs.matches != after.signature_matches - before.signature_matches ||
          !costs.process_agrees)
        errors_.push_back("isolated layer probe disagrees with the replay's counters");
    }
    t.costs.push_back(costs);
    t.frames_sent += after.tunnel_frames_sent - before.tunnel_frames_sent;
    t.packets += after.packets_replayed - before.packets_replayed;

    ControlProbe::Epoch epoch = t.control->step(*t.parallel, gen, spans_, window);
    check_bundle(epoch.result.bundle, t.control->num_classes(), errors_);
    t.epochs.push_back(std::move(epoch));

    // Keep the copies on the loop's configuration.
    if (w_.control() && installed_) {
      const shim::ConfigBundle& bundle = current_bundle();
      t.mirror->install_bundle(bundle, activate_at_);
      t.parallel->install_bundle(bundle, activate_at_);
    }
    if (current_bundle().generation != t.tables_generation) {
      t.tables = compile(current_bundle());
      t.tables_generation = current_bundle().generation;
    }
  }

  const Workload& w_;
  Plant& plant_;
  WindowSource& source_;
  SpanRecorder& spans_;
  std::vector<std::string>& errors_;
  std::uint64_t active_generation_ = 0;
  std::uint64_t last_generation_ = 0;
  std::uint64_t last_installed_ = 0;
  std::uint64_t generation_before_crash_ = 0;
  bool installed_ = false;
  std::uint64_t activate_at_ = 0;
  std::map<std::uint64_t, int> term_leader_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    throw std::invalid_argument(
        "usage: nwlb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--trace-file <path>]");
  return args;
}

/// Metrics of one run, printed as a table and as the result's JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "") {
    rows_.push_back({name, value, unit, samples, note});
  }

  void print(std::ostream& out) const {
    util::Table table({"Metric", "Value", "Unit", "Samples", "Note"});
    for (const Row& r : rows_)
      table.row().cell(r.name).cell(num(r.value)).cell(r.unit).cell(r.samples).cell(r.note);
    table.print(out);
  }

  std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + num(rows_[i].value) +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    return out + "}";
  }

  std::string samples_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": " + std::to_string(rows_[i].samples);
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Per-call cost: summed seconds over summed calls, scaled.
template <class Seconds, class Calls>
double per_call(const std::vector<perfbench::DataPlaneCosts>& costs, Seconds s, Calls n,
                double scale) {
  double sec = 0.0, calls = 0.0;
  for (const perfbench::DataPlaneCosts& c : costs) {
    sec += s(c);
    calls += static_cast<double>(n(c));
  }
  return calls > 0.0 ? sec * scale / calls : 0.0;
}

template <class Field>
std::vector<double> collect(const std::vector<ControlProbe::Epoch>& epochs, Field f) {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const ControlProbe::Epoch& e : epochs) out.push_back(f(e));
  return out;
}

void add_end_to_end(Report& report, const Workload& w, const Pass& pass,
                    const std::vector<double>& setup_s) {
  const std::size_t n = pass.window_s.size();
  const Tail tail = tail_of(pass.window_s);
  const std::string call = w.control() ? "run_interval" : "replay()";
  // Per-window rates, so a stretch of slow windows (the replicas' cold
  // first solves on control-faults, or the host slowing down for a while)
  // moves the rates no more than it moves the median window time.
  std::vector<double> sps, bps;
  for (std::size_t i = 0; i < n; ++i) {
    sps.push_back(pass.window_sessions[i] / pass.window_s[i]);
    bps.push_back(pass.window_bytes[i] / pass.window_s[i]);
  }
  report.add("sessions_per_s", median(sps), "sessions/s", n,
             "median over windows of sessions / " + call + " time");
  report.add("payload_bytes_per_s", median(bps), "B/s", n,
             "median over windows of payload bytes / " + call + " time");
  report.add("interval_p50_s", median(pass.window_s), "s", n, "median " + call + " time");
  report.add("interval_tail_s", tail.value, "s", n,
             "p" + util::format_double(tail.percentile, 1) + " of n=" + std::to_string(n));
  report.add("setup_s", median(setup_s), "s", setup_s.size(), "median of set-ups");
  report.add("rss_peak_mb", rss_peak_mb(), "MiB", 1, "getrusage peak");
  report.add("coverage",
             pass.covered + pass.missed > 0
                 ? static_cast<double>(pass.covered) / static_cast<double>(pass.covered + pass.missed)
                 : 0.0,
             "ratio", n, "ReplayStats coverage over timed windows");
  report.add("node_load_imbalance", median(pass.imbalance), "ratio", pass.imbalance.size(),
             "median over windows of max/mean node_work");
}

/// Printed beside the metrics but kept out of BENCHMARK.json: both read 0
/// on a healthy run (failed_frac always, churn on the replay workloads,
/// which install nothing), and a 0 median has no relative bound.
void print_zero_floor_metrics(const Pass& pass) {
  std::cout << "failed_frac " << num(pass.attempted ? static_cast<double>(pass.failed) /
                                                          static_cast<double>(pass.attempted)
                                                    : 0.0)
            << " ratio (" << pass.failed << " of " << pass.attempted << ")\n"
            << "churn_moved_frac " << num(median(pass.churn)) << " ratio (median of "
            << pass.churn.size() << " installs)\n";
}

void add_per_layer(Report& r, const Workload& w, const Plant& plant, const Traced& t,
                   const Pass& untraced, const Pass& traced) {
  const auto& c = t.costs;
  const std::size_t n = c.size();
  using Costs = perfbench::DataPlaneCosts;
  double replay_sum = 0.0, parallel_sum = 0.0, layer_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    replay_sum += t.replay_s[i];
    parallel_sum += t.parallel_s[i];
    layer_sum += c[i].total_s();
  }
  const auto per_window = [n](double total) { return n ? total / static_cast<double>(n) : 0.0; };
  auto calls = [&](auto f) {
    double sum = 0.0;
    for (const Costs& x : c) sum += static_cast<double>(f(x));
    return "calls/window " + util::format_double(per_window(sum), 1);
  };

  r.add("sim.replay_s", median(t.replay_s), "s", n, "ReplaySimulator::replay per window");
  r.add("sim.replay_parallel_s", median(t.parallel_s), "s", n,
        "same window, " + std::to_string(t.parallel->num_workers()) + " workers");
  r.add("sim.worker_speedup", parallel_sum > 0.0 ? replay_sum / parallel_sum : 0.0, "ratio", n,
        "1-worker / parallel replay time");
  r.add("sim.stats_s", median(t.stats_s), "s", t.stats_s.size(), "ReplaySimulator::stats");
  r.add("sim.packet_into_ns",
        per_call(c, [](const Costs& x) { return x.packet_into_s; },
                 [](const Costs& x) { return x.packets; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.packets; }));
  r.add("shim.hash_tuple_ns",
        per_call(c, [](const Costs& x) { return x.hash_s; },
                 [](const Costs& x) { return x.session_directions; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.session_directions; }));
  r.add("shim.decide_ns",
        per_call(c, [](const Costs& x) { return x.decide_s; },
                 [](const Costs& x) { return x.lookups; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.lookups; }));
  r.add("shim.encap_ns_per_byte",
        per_call(c, [](const Costs& x) { return x.encap_s; },
                 [](const Costs& x) { return x.frame_bytes; }, 1e9),
        "ns/B", n, calls([](const Costs& x) { return x.frames; }) + " (frame bytes)");
  r.add("shim.decap_ns_per_byte",
        per_call(c, [](const Costs& x) { return x.decap_s; },
                 [](const Costs& x) { return x.frame_bytes; }, 1e9),
        "ns/B", n, calls([](const Costs& x) { return x.frames; }) + " (frame bytes)");
  r.add("shim.replicated_packet_frac",
        t.packets ? static_cast<double>(t.frames_sent) / static_cast<double>(t.packets) : 0.0,
        "ratio", n, "tunnel_frames_sent / packets_replayed");
  r.add("nids.signature_ns_per_byte",
        per_call(c, [](const Costs& x) { return x.signature_s; },
                 [](const Costs& x) { return x.signature_bytes; }, 1e9),
        "ns/B", n, calls([](const Costs& x) { return x.processed_packets; }));
  r.add("nids.scan_observe_ns",
        per_call(c, [](const Costs& x) { return x.scan_s; },
                 [](const Costs& x) { return x.processed_packets; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.processed_packets; }));
  r.add("nids.session_observe_ns",
        per_call(c, [](const Costs& x) { return x.session_s; },
                 [](const Costs& x) { return x.processed_packets; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.processed_packets; }));
  r.add("nids.node_process_ns",
        per_call(c, [](const Costs& x) { return x.process_s; },
                 [](const Costs& x) { return x.processed_packets; }, 1e9),
        "ns", n, calls([](const Costs& x) { return x.processed_packets; }));
  r.add("nids.node_reserve_s",
        per_call(c, [](const Costs& x) { return x.reserve_s; },
                 [](const Costs& x) { return x.reserves; }, 1.0),
        "s", n, calls([](const Costs& x) { return x.reserves; }));

  const auto& e = t.epochs;
  const std::size_t ne = e.size();
  const auto frac = [&](auto pred) {
    double k = 0.0;
    for (const ControlProbe::Epoch& x : e) k += pred(x) ? 1.0 : 0.0;
    return ne ? k / static_cast<double>(ne) : 0.0;
  };
  std::vector<double> moved;
  for (const ControlProbe::Epoch& x : e)
    if (!x.skipped) moved.push_back(x.moved);
  double lp_s = 0.0, lp_iters = 0.0;
  for (const ControlProbe::Epoch& x : e) {
    lp_s += x.result.assignment.lp.solve_seconds;
    lp_iters += x.result.assignment.lp.iterations;
  }
  r.add("shim.flat_compile_s", median(collect(e, [](const auto& x) { return x.compile_s; })),
        "s", ne, "FlatConfig over every config of a new bundle");
  r.add("online.estimate_s", median(collect(e, [](const auto& x) { return x.estimate_s; })),
        "s", ne, "Estimator::observe + estimate");
  r.add("online.rollout_s", median(collect(e, [](const auto& x) { return x.rollout_s; })), "s",
        ne, "RolloutEngine::apply");
  r.add("online.rollout_skip_frac", frac([](const auto& x) { return x.skipped; }), "ratio", ne,
        "identical bundles skipped");
  r.add("online.churn_moved_frac",
        w.control() ? median(traced.churn) : median(moved), "ratio",
        w.control() ? traced.churn.size() : moved.size(),
        w.control() ? "loop installs" : "shadow installs");
  r.add("core.epoch_s", median(collect(e, [](const auto& x) { return x.epoch_s; })), "s", ne,
        "Controller::run");
  r.add("core.epoch_nonsolve_s",
        median(collect(e, [](const auto& x) { return x.epoch_s - x.result.solve_seconds; })),
        "s", ne, "epoch minus EpochResult::solve_seconds");
  r.add("core.delta_resolve_frac", frac([](const auto& x) { return x.result.delta_resolve; }),
        "ratio", ne, "");
  r.add("core.warm_start_frac", frac([](const auto& x) { return x.result.warm_started; }),
        "ratio", ne, "");
  r.add("core.degraded_frac", frac([](const auto& x) { return x.result.degraded; }), "ratio",
        ne, "");
  r.add("lp.solve_s",
        median(collect(e, [](const auto& x) { return x.result.assignment.lp.solve_seconds; })),
        "s", ne, "Assignment::lp of each epoch");
  r.add("lp.iterations",
        median(collect(e, [](const auto& x) {
          return static_cast<double>(x.result.assignment.lp.iterations);
        })),
        "count", ne, "median");
  r.add("lp.phase1_iterations",
        mean(collect(e, [](const auto& x) {
          return static_cast<double>(x.result.assignment.lp.phase1_iterations);
        })),
        "count", ne, "mean");
  r.add("lp.refactorizations",
        mean(collect(e, [](const auto& x) {
          return static_cast<double>(x.result.assignment.lp.refactorizations);
        })),
        "count", ne, "mean");
  r.add("lp.ns_per_iteration", lp_iters > 0.0 ? lp_s * 1e9 / lp_iters : 0.0, "ns", ne,
        "summed solve time / summed iterations");
  r.add("lp.cold_solve_s", plant.bootstrap.assignment.lp.solve_seconds, "s", 1,
        "bootstrap epoch");
  r.add("lp.cold_iterations", plant.bootstrap.assignment.lp.iterations, "count", 1,
        "bootstrap epoch");

  r.add("dist.leaderless_intervals", traced.leaderless, "count", traced.window_s.size(), "");
  r.add("dist.elections", static_cast<double>(traced.elections), "count", traced.window_s.size(),
        "");
  r.add("dist.intervals_to_new_generation", traced.intervals_to_new_generation, "count", 1,
        w.kind == Kind::kFaults ? "after the leader crash" : "no leader crash");

  r.add("trace.replay_explained_frac", replay_sum > 0.0 ? layer_sum / replay_sum : 0.0,
        "ratio", n, "summed isolated layer time / sim.replay_s");
  const std::size_t common = std::min(untraced.window_s.size(), traced.window_s.size());
  const auto head = [common](const std::vector<double>& xs) {
    return std::vector<double>(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(common));
  };
  const double off = median(head(untraced.window_s));
  r.add("trace.overhead_frac", off > 0.0 ? median(head(traced.window_s)) / off - 1.0 : 0.0,
        "ratio", common, "interval_p50_s traced vs untraced, same first windows");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = workload_by_name(args.workload);
    const int hw_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

    // Inputs that depend only on the seed, made before any set-up.
    std::optional<Bursts> bursts;
    std::optional<sim::FailureSchedule> faults;
    if (w.control()) {
      const topo::Topology topology = topo::topology_by_name(kTopology);
      const traffic::TrafficMatrix tm = traffic::gravity_matrix(
          topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
      bursts.emplace(tm, args.seed);
      if (w.kind == Kind::kFaults)
        faults = fault_schedule(w.window_sessions, topology.graph.num_nodes());
    }
    const Bursts* bursts_ptr = bursts ? &*bursts : nullptr;
    const sim::FailureSchedule* faults_ptr = faults ? &*faults : nullptr;

    std::vector<std::string> errors;
    Report report;
    Pass result;
    if (!args.trace) {
      std::vector<double> setup_s;
      std::unique_ptr<Plant> plant;
      for (int i = 0; i < kSetups; ++i) {
        plant.reset();
        const auto t0 = Clock::now();
        plant = std::make_unique<Plant>(w, faults_ptr);
        setup_s.push_back(since(t0));
      }
      check_bundle(plant->bootstrap.bundle, static_cast<int>(plant->input.classes.size()),
                   errors);
      WindowSource source(w, plant->input.classes, bursts_ptr, args.seed);
      SpanRecorder off(false);
      result = Runner(w, *plant, source, off, errors).run(args.seconds, nullptr);
      add_end_to_end(report, w, result, setup_s);
    } else {
      Pass untraced;
      {
        Plant plant(w, faults_ptr);
        WindowSource source(w, plant.input.classes, bursts_ptr, args.seed);
        SpanRecorder off(false);
        untraced = Runner(w, plant, source, off, errors).run(args.seconds / 2, nullptr);
      }
      Plant plant(w, faults_ptr);
      WindowSource source(w, plant.input.classes, bursts_ptr, args.seed);
      Traced t;
      sim::ReplayOptions copy_opts;
      copy_opts.failures = faults_ptr;
      if (w.control())
        t.mirror = std::make_unique<sim::ReplaySimulator>(plant.input, plant.bootstrap.bundle,
                                                          copy_opts);
      copy_opts.num_workers = hw_threads;
      t.parallel = std::make_unique<sim::ReplaySimulator>(plant.input, plant.bootstrap.bundle,
                                                          copy_opts);
      t.control = std::make_unique<ControlProbe>(plant.topology, plant.tm, plant.copts);
      t.engine = std::make_shared<const nids::SignatureEngine>(
          nids::SignatureEngine::default_rules());
      t.tables = compile(plant.bootstrap.bundle);
      t.tables_generation = plant.bootstrap.bundle.generation;
      SpanRecorder spans(true);
      result = Runner(w, plant, source, spans, errors).run(args.seconds / 2, &t);
      add_per_layer(report, w, plant, t, untraced, result);

      std::cout << "self time per span (s):\n";
      for (const auto& [name, layer] : spans.layer_times())
        std::cout << "  " << name << " calls=" << layer.count
                  << " total=" << num(layer.total_s) << " self=" << num(layer.self_s) << "\n";
      if (!args.trace_file.empty()) {
        if (!spans.write_chrome_trace(args.trace_file))
          errors.push_back("cannot write " + args.trace_file);
        else
          std::cout << "trace: " << args.trace_file << "\n";
      }
    }

    std::cout << "workload " << w.name << ", seed " << args.seed << ", "
              << result.window_s.size() << (w.control() ? " intervals" : " windows") << "\n";
    report.print(std::cout);
    print_zero_floor_metrics(result);
    std::cout << "record {\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"seconds\": " << num(args.seconds)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu\": \"" << util::json_escape(cpu_model()) << "\", \"compiler\": \""
              << util::json_escape(NWLB_PERFBENCH_COMPILER) << "\", \"build_type\": \""
              << NWLB_PERFBENCH_BUILD_TYPE << "\", \"replay_workers\": 1"
              << ", \"parallel_copy_workers\": " << hw_threads
              << ", \"topology\": \"" << kTopology << "\", \"window_sessions\": "
              << w.window_sessions << ", \"samples\": " << report.samples_json() << "}\n";
    for (const std::string& e : errors) std::cerr << "CHECK FAILED: " << e << "\n";
    std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
              << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
              << ", \"metrics\": " << report.metrics_json() << "}" << std::endl;
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "nwlb_perfbench: " << e.what() << "\n";
    return 2;
  }
}
