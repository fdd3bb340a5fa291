#include "online/estimator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace nwlb::online {

namespace {

constexpr std::array<std::string_view, 2> kKinds = {"ewma", "var-ewma"};

constexpr std::string_view kGrammar =
    "estimator spec grammar: kind[:key=value[,key=value]...] with kind in "
    "{ewma, var-ewma} and keys {window, trend-window, headroom, cap, floor, "
    "scale}";

[[noreturn]] void reject(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("estimator spec \"" + std::string(spec) + "\": " +
                              why + " (" + std::string(kGrammar) + ")");
}

double parse_number(std::string_view spec, std::string_view key,
                    std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    reject(spec, "value for key '" + std::string(key) + "' is not a number: '" +
                     text + "'");
  return parsed;
}

int parse_int(std::string_view spec, std::string_view key,
              std::string_view value) {
  const double parsed = parse_number(spec, key, value);
  // Range-check before the cast: converting a NaN or out-of-range double
  // to int is undefined behaviour.
  if (!(parsed >= std::numeric_limits<int>::min() &&
        parsed <= std::numeric_limits<int>::max()) ||
      parsed != std::trunc(parsed))
    reject(spec, "value for key '" + std::string(key) +
                     "' must be an integer in int range");
  return static_cast<int>(parsed);
}

// var-ewma publishes its headroom fraction in steps of this size.
constexpr double kHeadroomStep = 0.05;

}  // namespace

void validate_estimator_options(const EstimatorOptions& options) {
  if (options.window < 1)
    throw std::invalid_argument("EstimatorOptions: window must be >= 1, got " +
                                std::to_string(options.window));
  if (!(options.scale_to_total >= 0.0) ||
      !std::isfinite(options.scale_to_total))
    throw std::invalid_argument(
        "EstimatorOptions: scale_to_total must be finite and >= 0");
  if (!(options.support_floor >= 0.0 && options.support_floor < 1.0))
    throw std::invalid_argument(
        "EstimatorOptions: support_floor must be in [0, 1), got " +
        std::to_string(options.support_floor));
  if (options.trend_window < 1)
    throw std::invalid_argument(
        "EstimatorOptions: trend_window must be >= 1, got " +
        std::to_string(options.trend_window));
  if (!(options.headroom_sigmas >= 0.0) ||
      !std::isfinite(options.headroom_sigmas))
    throw std::invalid_argument(
        "EstimatorOptions: headroom_sigmas must be finite and >= 0");
  if (!(options.headroom_cap >= 0.0) || !std::isfinite(options.headroom_cap))
    throw std::invalid_argument(
        "EstimatorOptions: headroom_cap must be finite and >= 0");
}

Estimator::Estimator(const EstimatorSpec& spec,
                     const std::vector<traffic::TrafficClass>& classes,
                     int num_pops)
    : options_(spec.options),
      var_ewma_(spec.kind == "var-ewma"),
      num_pops_(num_pops),
      alpha_(2.0 / (static_cast<double>(spec.options.window) + 1.0)),
      // The second moment gets its own, slower smoothing constant:
      // headroom is meant to track *which classes are bursty*, a
      // slowly-changing property, and a jittery sigma-hat would translate
      // straight into rollout churn.
      var_alpha_(2.0 / (static_cast<double>(spec.options.trend_window) + 1.0)) {
  if (!var_ewma_ && spec.kind != "ewma")
    throw std::invalid_argument("Estimator: unknown kind '" + spec.kind + "'");
  validate_estimator_options(options_);
  if (num_pops < 1)
    throw std::invalid_argument("Estimator: num_pops must be >= 1");
  pairs_.reserve(classes.size());
  for (const traffic::TrafficClass& cls : classes) {
    if (cls.ingress < 0 || cls.ingress >= num_pops || cls.egress < 0 ||
        cls.egress >= num_pops)
      throw std::invalid_argument("Estimator: class pair outside PoP range");
    pairs_.push_back({cls.ingress, cls.egress});
  }
  mean_sessions_.assign(pairs_.size(), 0.0);
  mean_bytes_.assign(pairs_.size(), 0.0);
  var_.assign(pairs_.size(), 0.0);
  headroom_.assign(pairs_.size(), 0.0);
}

void Estimator::observe(std::span<const std::uint64_t> class_sessions,
                        std::span<const std::uint64_t> class_bytes) {
  if (class_sessions.size() != pairs_.size() ||
      class_bytes.size() != pairs_.size())
    throw std::invalid_argument("Estimator: counter span size mismatch");
  // Warm-up bias correction: the first window seeds the state directly
  // (a = 1), and for the next few windows the weight floors at the
  // running-mean weight 1/(t+1).  A flash-crowd first window therefore
  // cannot lock in an inflated scale anchor: it decays at least as fast
  // as a sample mean would dilute it, regardless of how long the
  // configured window is.
  const double a =
      std::max(alpha_, 1.0 / (static_cast<double>(intervals_) + 1.0));
  for (std::size_t c = 0; c < pairs_.size(); ++c) {
    const auto sessions = static_cast<double>(class_sessions[c]);
    const auto bytes = static_cast<double>(class_bytes[c]);
    // The innovation is measured against the previous level.
    const double innovation = sessions - mean_sessions_[c];
    // One level for both kinds, folded in two algebraically equal forms:
    // each kind keeps the rounding its selfsimilar_tracking cells were
    // measured with, because the max-load LP's near-degenerate vertices
    // turn even a last-ulp change in the level into a different plan.
    mean_sessions_[c] = var_ewma_
                            ? mean_sessions_[c] + a * innovation
                            : a * sessions + (1.0 - a) * mean_sessions_[c];
    mean_bytes_[c] = a * bytes + (1.0 - a) * mean_bytes_[c];
    if (var_ewma_ && intervals_ > 0) track_headroom(c, innovation);
  }
  ++intervals_;
}

void Estimator::track_headroom(std::size_t c, double innovation) {
  // Same warm-up floor as the level: the first innovation seeds the
  // variance outright instead of being scaled by a tiny alpha.
  const double av =
      std::max(var_alpha_, 1.0 / static_cast<double>(intervals_));
  var_[c] = av * innovation * innovation + (1.0 - av) * var_[c];
  // Quantize the headroom fraction to coarse steps with hysteresis (a
  // Schmitt trigger): sigma-hat drifts a little every window, and feeding
  // that drift straight into the LP re-tilts the plan — and re-shuffles
  // the hash space — for no provisioning benefit.  The published fraction
  // only moves once the raw value is clearly past the current step, so
  // within-step jitter is bit-stable.
  const double level = mean_sessions_[c];
  if (level <= 0.0) return;
  const double raw =
      std::min(options_.headroom_cap,
               options_.headroom_sigmas * std::sqrt(var_[c]) / level);
  if (std::abs(raw - headroom_[c]) > 0.7 * kHeadroomStep)
    headroom_[c] = kHeadroomStep * std::floor(raw / kHeadroomStep + 0.5);
}

traffic::TrafficMatrix Estimator::estimate() const {
  traffic::TrafficMatrix tm(num_pops_);
  // Class-support floor: every pair the deployment was built with keeps a
  // sliver of demand so the LP model shape never changes.
  double total = 0.0;
  for (const double rate : mean_sessions_) total += rate;
  const double mean =
      pairs_.empty() ? 0.0
                     : std::max(total / static_cast<double>(pairs_.size()), 1.0);
  const double floor = options_.support_floor * mean;
  std::vector<double> base(pairs_.size(), 0.0);
  double raw = 0.0;
  for (std::size_t c = 0; c < pairs_.size(); ++c) {
    base[c] = std::max(mean_sessions_[c], floor);
    if (pairs_[c].ingress != pairs_[c].egress) raw += base[c];
  }
  // Scale anchoring first, headroom second: the tracked level mass is
  // renormalized to the provisioned volume, then each class is inflated
  // by its own burst headroom.  Inflating before anchoring would be a
  // no-op — the renormalization divides it right back out.
  const double factor = (options_.scale_to_total > 0.0 && raw > 0.0)
                            ? options_.scale_to_total / raw
                            : 1.0;
  for (std::size_t c = 0; c < pairs_.size(); ++c) {
    if (pairs_[c].ingress == pairs_[c].egress) continue;
    const double volume = base[c] * factor * (1.0 + headroom_[c]);
    tm.set_volume(pairs_[c].ingress, pairs_[c].egress,
                  tm.volume(pairs_[c].ingress, pairs_[c].egress) + volume);
  }
  return tm;
}

void Estimator::reset() {
  intervals_ = 0;
  std::fill(mean_sessions_.begin(), mean_sessions_.end(), 0.0);
  std::fill(mean_bytes_.begin(), mean_bytes_.end(), 0.0);
  std::fill(var_.begin(), var_.end(), 0.0);
  std::fill(headroom_.begin(), headroom_.end(), 0.0);
}

double Estimator::class_rate(std::size_t class_index) const {
  if (class_index >= pairs_.size())
    throw std::out_of_range("Estimator: class index out of range");
  return mean_sessions_[class_index];
}

double Estimator::bytes_per_session(std::size_t class_index) const {
  const double sessions = mean_sessions_.at(class_index);
  return sessions > 0.0 ? mean_bytes_.at(class_index) / sessions : 0.0;
}

std::string_view Estimator::kind() const { return kKinds[var_ewma_ ? 1 : 0]; }

double Estimator::estimation_error(const traffic::TrafficMatrix& oracle) const {
  return online::estimation_error(estimate(), oracle);
}

void Estimator::begin_partials() {
  merged_sessions_.assign(num_classes(), 0);
  merged_bytes_.assign(num_classes(), 0);
}

void Estimator::merge_partial(std::span<const std::uint64_t> sessions,
                              std::span<const std::uint64_t> bytes) {
  if (merged_sessions_.size() != num_classes()) begin_partials();
  if (sessions.size() != num_classes() || bytes.size() != num_classes())
    throw std::invalid_argument("Estimator: partial span size mismatch");
  for (std::size_t c = 0; c < sessions.size(); ++c) {
    merged_sessions_[c] += sessions[c];
    merged_bytes_[c] += bytes[c];
  }
}

void Estimator::commit_partials() {
  if (merged_sessions_.size() != num_classes()) begin_partials();
  observe(merged_sessions_, merged_bytes_);
}

std::string_view estimator_spec_grammar() { return kGrammar; }

std::span<const std::string_view> estimator_kinds() { return kKinds; }

EstimatorSpec parse_estimator_spec(std::string_view spec,
                                   const EstimatorOptions& defaults) {
  EstimatorSpec parsed;
  parsed.options = defaults;
  const std::size_t colon = spec.find(':');
  const std::string_view kind = spec.substr(0, colon);
  if (std::find(kKinds.begin(), kKinds.end(), kind) == kKinds.end())
    reject(spec, "unknown estimator kind '" + std::string(kind) + "'");
  parsed.kind = std::string(kind);
  std::string_view rest =
      colon == std::string_view::npos ? std::string_view{} : spec.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0)
      reject(spec, "expected key=value, got '" + std::string(pair) + "'");
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key == "window")
      parsed.options.window = parse_int(spec, key, value);
    else if (key == "trend-window")
      parsed.options.trend_window = parse_int(spec, key, value);
    else if (key == "headroom")
      parsed.options.headroom_sigmas = parse_number(spec, key, value);
    else if (key == "cap")
      parsed.options.headroom_cap = parse_number(spec, key, value);
    else if (key == "floor")
      parsed.options.support_floor = parse_number(spec, key, value);
    else if (key == "scale")
      parsed.options.scale_to_total = parse_number(spec, key, value);
    else
      reject(spec, "unknown key '" + std::string(key) + "'");
  }
  try {
    validate_estimator_options(parsed.options);
  } catch (const std::invalid_argument& e) {
    reject(spec, e.what());
  }
  return parsed;
}

std::unique_ptr<Estimator> make_estimator(
    std::string_view spec, const std::vector<traffic::TrafficClass>& classes,
    int num_pops, const EstimatorOptions& defaults) {
  return std::make_unique<Estimator>(parse_estimator_spec(spec, defaults),
                                     classes, num_pops);
}

double estimation_error(const traffic::TrafficMatrix& estimate,
                        const traffic::TrafficMatrix& oracle) {
  if (estimate.num_nodes() != oracle.num_nodes())
    throw std::invalid_argument("estimation_error: matrix size mismatch");
  const double et = estimate.total();
  const double ot = oracle.total();
  // Total-variation distance on unit-normalized matrices: half the L1
  // difference of the two distributions.
  double l1 = 0.0;
  const int n = estimate.num_nodes();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double e = et > 0.0 ? estimate.volume(i, j) / et : 0.0;
      const double o = ot > 0.0 ? oracle.volume(i, j) / ot : 0.0;
      l1 += e > o ? e - o : o - e;
    }
  return 0.5 * l1;
}

}  // namespace nwlb::online
