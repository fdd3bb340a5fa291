// Steepest-edge pricing, bounded-accuracy termination, and per-class delta
// re-solves — the machinery that makes ISP-scale replication LPs solve
// instead of timing out (the "TiNet blowup" fix).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/revised_simplex.h"
#include "lp/validate.h"
#include "lp_shaped.h"
#include "oracle/dense_simplex.h"

namespace nwlb::lp {
namespace {

int total_iterations(const Solution& s) { return s.iterations + s.phase1_iterations; }

// The headline regression, pinned: on an equality-heavy min-max instance
// Devex pricing takes exactly these iterations.  The rotating-window
// partial pricing it replaced took 485 phase-2 + 29 phase-1 iterations on
// the same instance (on the real TiNet LP the gap was ~2-50x).
TEST(SteepestEdge, DevexIterationCountsPinned) {
  const ShapedLp shaped = make_shaped(60, 8, 0x7ea1);
  const Solution se = solve_revised(shaped.model);
  ASSERT_EQ(se.status, Status::kOptimal);
  EXPECT_EQ(se.iterations, 302);
  EXPECT_EQ(se.phase1_iterations, 52);
  EXPECT_EQ(se.refactorizations, 4);
  EXPECT_NEAR(se.objective, 5.9332614497749221, 1e-12);
}

TEST(SteepestEdge, ObjectiveBoundEqualsObjectiveAtOptimum) {
  const ShapedLp shaped = make_shaped(10, 4, 0x0b1a5);
  const Solution s = solve_revised(shaped.model);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective_bound, s.objective);
}

// Bounded-accuracy early termination: with a tolerance the solve may stop
// at kGoodEnough, and whatever it returns must be primal feasible with an
// objective provably within the tolerance of the exact optimum.
TEST(GoodEnough, CertifiedWithinToleranceOfExactOptimum) {
  const ShapedLp shaped = make_shaped(40, 6, 0x600d);
  const Solution exact = solve_revised(shaped.model);
  ASSERT_EQ(exact.status, Status::kOptimal);

  for (const double tolerance : {0.01, 0.1, 0.5}) {
    Options opt;
    opt.objective_tolerance = tolerance;
    const Solution approx = solve_revised(shaped.model, opt);
    ASSERT_TRUE(approx.solved()) << to_string(approx.status);
    const double scale = std::max(1.0, std::abs(exact.objective));
    // Achieved objective within tolerance of the optimum...
    EXPECT_LE(approx.objective, exact.objective + tolerance * scale + 1e-6);
    // ...and the certificate brackets the optimum from below.
    EXPECT_LE(approx.objective_bound, exact.objective + 1e-6 * scale);
    EXPECT_GE(approx.objective, approx.objective_bound - 1e-9);
    EXPECT_LE(shaped.model.max_violation(approx.x), 1e-6);
    // The validator must accept the tolerance-certified solution.
    const auto report = validate_solution(shaped.model, approx);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// A coarse tolerance on a large shaped instance must actually exercise the
// early exit (not just fall through to optimality) and save iterations.
TEST(GoodEnough, CoarseToleranceStopsEarly) {
  const ShapedLp shaped = make_shaped(120, 10, 0xeaa17);
  const Solution exact = solve_revised(shaped.model);
  ASSERT_EQ(exact.status, Status::kOptimal);
  Options opt;
  opt.objective_tolerance = 0.25;
  const Solution approx = solve_revised(shaped.model, opt);
  ASSERT_TRUE(approx.solved()) << to_string(approx.status);
  EXPECT_LE(total_iterations(approx), total_iterations(exact));
  if (approx.status == Status::kGoodEnough) {
    EXPECT_LT(total_iterations(approx), total_iterations(exact));
    const auto report = validate_solution(shaped.model, approx);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// Per-class delta re-solve: after perturbing one class, pricing focused on
// that class's columns (plus logicals) must still reach the true optimum —
// the solver's full verification scan is the safety net.
TEST(DeltaResolve, FocusedRepricingReachesTheOptimum) {
  const ShapedLp base = make_shaped(30, 5, 0xde17a);
  const Solution base_solution = solve_revised(base.model);
  ASSERT_EQ(base_solution.status, Status::kOptimal);

  // Same instance with class 3's weights scaled 1.6x (same model shape).
  const ShapedLp drifted = make_shaped(30, 5, 0xde17a, 1.6, 3);
  const Solution cold = solve_revised(drifted.model);
  ASSERT_EQ(cold.status, Status::kOptimal);

  Options focus_opt;
  const std::vector<int> focus = drifted.columns_of({3});
  focus_opt.priority_columns = &focus;
  const Solution warm = solve_revised(drifted.model, focus_opt, &base_solution.basis);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_LE(total_iterations(warm), total_iterations(cold));
}

// A deliberately wrong focus set must not yield a wrong answer: when the
// restricted scan cannot certify optimality the solver widens to full
// pricing and keeps going.
TEST(DeltaResolve, WrongFocusStillSolvesExactly) {
  const ShapedLp base = make_shaped(20, 4, 0xbad0);
  const Solution base_solution = solve_revised(base.model);
  ASSERT_EQ(base_solution.status, Status::kOptimal);
  const ShapedLp drifted = make_shaped(20, 4, 0xbad0, 2.0, 7);
  const Solution cold = solve_revised(drifted.model);
  ASSERT_EQ(cold.status, Status::kOptimal);

  Options focus_opt;
  const std::vector<int> wrong_focus = drifted.columns_of({1});  // Not class 7.
  focus_opt.priority_columns = &wrong_focus;
  const Solution warm = solve_revised(drifted.model, focus_opt, &base_solution.basis);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
}

// Both backends must report the same status for the same exhausted
// wall-clock budget (the dense oracle used to check only max_iterations).
TEST(TimeBudget, DenseAndRevisedAgreeOnExhaustion) {
  const ShapedLp shaped = make_shaped(40, 6, 0x71e3);
  Options opt;
  opt.max_seconds = 1e-9;  // Expires before the first pivot.
  const Solution revised = solve_revised(shaped.model, opt);
  const Solution dense = solve_dense(shaped.model, opt);
  EXPECT_EQ(revised.status, Status::kTimeLimit);
  EXPECT_EQ(dense.status, Status::kTimeLimit);
}

}  // namespace
}  // namespace nwlb::lp
