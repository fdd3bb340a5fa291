// Streaming traffic-matrix estimation (DESIGN.md §10, §15).
//
// The paper's controller re-optimizes from a periodic traffic-matrix feed;
// in a live deployment nobody hands the controller an oracle matrix — it
// must be *measured*.  The shims already observe every session at its
// ingress (the per-class window counters the replay data plane exports),
// so an estimator folds those sketches into a TrafficMatrix each control
// interval, mapped back onto each class's ordered (ingress, egress) pair.
//
// One class serves both estimator kinds.  It is built through
// `make_estimator(spec)`, where `spec` is `kind[:key=value[,key=value]...]`;
// the control loop, the replicated control plane, and nwlbctl all select
// the kind by spec string (DESIGN.md §15).  Kinds:
//
//   * `ewma`     — one EWMA per class (alpha = 2/(window+1)).  The
//     paper-faithful near-stationary baseline.
//   * `var-ewma` — the same EWMA level plus an EWMA of the squared
//     innovation; each class's estimate is inflated by
//     `headroom_sigmas·σ̂` (capped) so the LP provisions burst headroom
//     where the traffic is actually bursty.  The burst-aware choice for
//     self-similar traffic.
//
// Both correct warm-up bias with an effective smoothing weight
// `max(alpha, 1/(t+1))`: the first window seeds the state directly (no
// bias toward the all-zero initial state), yet an anomalous first window
// (a flash crowd at boot) is forgotten at least as fast as a running
// sample mean would forget it, instead of being locked in as the scale
// anchor for `window` intervals.
//
// Two guards keep every estimate LP-compatible:
//
//   * Class-support floor.  build_classes() creates one class per ordered
//     pair with *positive* demand, and the controller warm-starts every
//     epoch from the previous basis, which requires the model shape to be
//     identical across epochs.  A pair that happens to see zero sessions
//     in a window must therefore not vanish from the matrix: every class
//     known at construction keeps a small positive floor.
//
//   * Scale anchoring.  Window counters are "sessions this interval", not
//     "provisioned sessions"; scale_to_total renormalizes the estimate to
//     the deployment's provisioned volume so LP load fractions stay
//     comparable with the oracle-fed path.  Headroom inflation is applied
//     *after* anchoring — otherwise the renormalization would cancel it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/classes.h"
#include "traffic/matrix.h"

namespace nwlb::online {

struct EstimatorOptions {
  /// Smoothing window, in control intervals (alpha = 2 / (window + 1)).
  /// 1 = no smoothing: each estimate is the latest window alone.
  int window = 4;

  /// Renormalize every estimate so the matrix totals this many sessions
  /// (the deployment's provisioned volume).  0 = keep raw window counts.
  double scale_to_total = 0.0;

  /// Floor for a known class pair as a fraction of the mean per-class
  /// volume — keeps the LP model shape fixed (see file comment).
  double support_floor = 1e-3;

  /// var-ewma: innovation-variance window (alpha_v = 2/(trend_window+1)),
  /// slower than `window` so headroom tracks *which classes are bursty*
  /// without jittering.
  int trend_window = 8;

  /// var-ewma only: headroom multiplier k — each class's estimate is
  /// inflated by k·σ̂ of its recent innovation (one-step forecast error).
  /// Keep k modest: LP plan fractions are scale-invariant, so inflating
  /// one class *squeezes every other class's share* — headroom is a
  /// zero-sum tilt, not free slack.  A quarter-sigma hedge is what wins
  /// the selfsimilar_tracking bench; k >= 1 measurably loses.
  double headroom_sigmas = 0.25;

  /// var-ewma only: cap on the inflation as a fraction of the class
  /// estimate (0.2 = at most 1.2x the class's provisioned volume).
  double headroom_cap = 0.2;
};

/// Throws std::invalid_argument with a typed message when any field is
/// outside its documented domain.  Called by every estimator constructor
/// and by spec parsing, so a bad option never gets past construction.
void validate_estimator_options(const EstimatorOptions& options);

/// Grammar accepted by make_estimator() / parse_estimator_spec().
/// Kept in one place so every rejection message can cite it.
std::string_view estimator_spec_grammar();

/// Estimator kinds, in spec-grammar order: {ewma, var-ewma}.
std::span<const std::string_view> estimator_kinds();

struct EstimatorSpec {
  std::string kind;
  EstimatorOptions options;
};

/// Parses `kind[:key=value[,key=value]...]` on top of `defaults`.
/// Keys: window, trend-window, headroom, cap, floor, scale.  Throws
/// std::invalid_argument citing estimator_spec_grammar() on an unknown
/// kind, unknown key, malformed pair, or out-of-domain value.
EstimatorSpec parse_estimator_spec(std::string_view spec,
                                   const EstimatorOptions& defaults = {});

/// Traffic-matrix estimator (DESIGN.md §15).  Build it through
/// make_estimator().
class Estimator {
 public:
  /// `spec.kind` must be one of estimator_kinds() and `spec.options` must
  /// pass validate_estimator_options() (throws std::invalid_argument).
  Estimator(const EstimatorSpec& spec,
            const std::vector<traffic::TrafficClass>& classes, int num_pops);

  /// Folds one control interval's data-plane observations (indexed like
  /// the construction-time class list; sizes must match).
  void observe(std::span<const std::uint64_t> class_sessions,
               std::span<const std::uint64_t> class_bytes);

  /// The current estimate (see file comment for floor + scaling).  Valid
  /// after the first observe(); before that it is the flat floor matrix.
  traffic::TrafficMatrix estimate() const;

  /// Forgets all observed state: intervals_observed() back to 0, the next
  /// observe() re-seeds.  The construction-time shape is kept.
  void reset();

  /// Smoothed sessions-per-interval forecast for one class (headroom
  /// inflation excluded — this is the tracked level, not the provisioned
  /// volume).
  double class_rate(std::size_t class_index) const;
  /// Smoothed payload bytes per session for one class (0 until observed).
  double bytes_per_session(std::size_t class_index) const;

  int intervals_observed() const { return intervals_; }
  std::size_t num_classes() const { return pairs_.size(); }
  /// The spec kind this estimator was built as ("ewma" or "var-ewma").
  std::string_view kind() const;
  const EstimatorOptions& options() const { return options_; }

  /// Total-variation distance between estimate() and `oracle` after
  /// normalizing both to unit mass (convenience for the free function).
  double estimation_error(const traffic::TrafficMatrix& oracle) const;

  // --- Gossip partial hooks (DESIGN.md §13) -----------------------------
  //
  // The replicated control plane merges per-origin counter slices into a
  // digest before feeding the estimator.  The merge is plain uint64
  // addition on the *inputs*, so replicas fed the converged digest
  // converge for every kind.

  /// Starts a fresh merge window (merged sums reset to zero).
  void begin_partials();
  /// Accumulates one origin's disjoint counter slice (sizes must match
  /// num_classes(); throws std::invalid_argument otherwise).
  void merge_partial(std::span<const std::uint64_t> sessions,
                     std::span<const std::uint64_t> bytes);
  /// Feeds the merged digest to observe().  The merged sums stay readable
  /// until the next begin_partials().
  void commit_partials();
  const std::vector<std::uint64_t>& merged_sessions() const {
    return merged_sessions_;
  }
  const std::vector<std::uint64_t>& merged_bytes() const { return merged_bytes_; }

 private:
  struct Pair {
    int ingress;
    int egress;
  };
  /// var-ewma: folds one class's innovation into its variance and
  /// republishes its quantized headroom fraction.
  void track_headroom(std::size_t c, double innovation);

  EstimatorOptions options_;
  bool var_ewma_;
  int num_pops_;
  double alpha_;
  double var_alpha_;
  std::vector<Pair> pairs_;
  std::vector<double> mean_sessions_;  // The tracked level: EWMA, warm-up corrected.
  std::vector<double> mean_bytes_;     // Payload bytes/interval.
  std::vector<double> var_;            // var-ewma: innovation variance.
  std::vector<double> headroom_;       // Provisioned fraction; 0 for ewma.
  int intervals_ = 0;
  std::vector<std::uint64_t> merged_sessions_;
  std::vector<std::uint64_t> merged_bytes_;
};

/// Parses `spec` and builds the estimator.  `classes` fixes the shape (one
/// state slot per class, mapped to its (ingress, egress) pair); `num_pops`
/// sizes the emitted matrix; `defaults` seeds the options the spec's
/// key=value overrides are applied on top of.
std::unique_ptr<Estimator> make_estimator(
    std::string_view spec, const std::vector<traffic::TrafficClass>& classes,
    int num_pops, const EstimatorOptions& defaults = {});

/// Total-variation distance between the two matrices after normalizing
/// each to unit mass: 0 = identical shape, 1 = disjoint support.  The
/// bench's "estimator error vs oracle" metric.
double estimation_error(const traffic::TrafficMatrix& estimate,
                        const traffic::TrafficMatrix& oracle);

}  // namespace nwlb::online
