// Equilibration scaling: the scaled model must keep the original optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lp/revised_simplex.h"
#include "lp/scaling.h"
#include "util/rng.h"

namespace nwlb::lp {
namespace {

TEST(Scaling, ReducesCoefficientSpread) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1e6);
  const RowId r1 = m.add_row(Sense::kGreaterEqual, 1e6);
  m.add_coefficient(r1, x, 1e6);
  m.add_coefficient(r1, y, 1e-3);
  const RowId r2 = m.add_row(Sense::kLessEqual, 10);
  m.add_coefficient(r2, x, 1e-4);
  m.add_coefficient(r2, y, 100);
  const double before = coefficient_spread(m);
  const ScaledModel scaled = scale_model(m);
  EXPECT_LT(coefficient_spread(scaled.model), before);
}

TEST(Scaling, SolutionMapsBack) {
  Model m;
  const VarId x = m.add_variable(0, 2000, -1e-3);
  const VarId y = m.add_variable(0, 3, -2000);
  const RowId r = m.add_row(Sense::kLessEqual, 4000);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1000);
  const Solution direct = solve_revised(m);
  const ScaledModel scaled = scale_model(m);
  const Solution inner = solve_revised(scaled.model);
  ASSERT_EQ(direct.status, Status::kOptimal);
  ASSERT_EQ(inner.status, Status::kOptimal);
  const auto restored = scaled.restore_primal(inner.x);
  EXPECT_NEAR(m.objective_value(restored), direct.objective, 1e-6 * std::abs(direct.objective));
  EXPECT_LE(m.max_violation(restored), 1e-5);
}

class ScalingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalingEquivalence, PreservesOptima) {
  nwlb::util::Rng rng(GetParam() * 313);
  Model m;
  const int n = 3 + static_cast<int>(rng.below(8));
  std::vector<VarId> vars;
  for (int j = 0; j < n; ++j) {
    const double magnitude = std::pow(10.0, rng.uniform(-3, 3));
    vars.push_back(m.add_variable(0, 5 * magnitude, rng.uniform(-1, 1) / magnitude));
  }
  for (int i = 0; i < 4; ++i) {
    const RowId r = m.add_row(Sense::kLessEqual, std::pow(10.0, rng.uniform(0, 3)));
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6))
        m.add_coefficient(r, vars[static_cast<std::size_t>(j)],
                          rng.uniform(0.1, 2) * std::pow(10.0, rng.uniform(-2, 2)));
  }
  const Solution direct = solve_revised(m);
  const ScaledModel scaled = scale_model(m);
  const Solution inner = solve_revised(scaled.model);
  ASSERT_EQ(direct.status, Status::kOptimal);
  ASSERT_EQ(inner.status, Status::kOptimal);
  const double tol = 1e-6 * std::max(1.0, std::abs(direct.objective));
  EXPECT_NEAR(m.objective_value(scaled.restore_primal(inner.x)), direct.objective, tol);
}

INSTANTIATE_TEST_SUITE_P(Random, ScalingEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace nwlb::lp
