// Hand-checked LPs for the dense tableau oracle.  Every case here is small
// enough to verify by hand; the property suite (lp_property_test.cpp) then
// uses this oracle to validate the revised simplex at scale.
#include "oracle/dense_simplex.h"

#include <gtest/gtest.h>

namespace nwlb::lp {
namespace {

TEST(DenseSimplex, TwoVariableClassic) {
  // min -x - 2y  s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0.  Opt at (1,3): -7.
  Model m;
  const VarId x = m.add_variable(0, 2, -1);
  const VarId y = m.add_variable(0, 3, -2);
  const RowId r = m.add_row(Sense::kLessEqual, 4);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -7.0, 1e-8);
  EXPECT_NEAR(s.value(x), 1.0, 1e-8);
  EXPECT_NEAR(s.value(y), 3.0, 1e-8);
}

TEST(DenseSimplex, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 3, x,y >= 0.  Opt at (0, 1.5): 1.5.
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 2);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-8);
}

TEST(DenseSimplex, GreaterEqual) {
  // min 3x + y  s.t. x + y >= 2, x >= 0, y >= 0.  Opt (0,2): 2.
  Model m;
  const VarId x = m.add_variable(0, kInf, 3);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, 2);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.value(y), 2.0, 1e-8);
}

TEST(DenseSimplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_variable(0, 1, 0);
  const RowId r = m.add_row(Sense::kGreaterEqual, 5);
  m.add_coefficient(r, x, 1);
  EXPECT_EQ(solve_dense(m).status, Status::kInfeasible);
}

TEST(DenseSimplex, DetectsUnbounded) {
  Model m;
  m.add_variable(0, kInf, -1);  // min -x, x unconstrained above.
  EXPECT_EQ(solve_dense(m).status, Status::kUnbounded);
}

TEST(DenseSimplex, FreeVariable) {
  // min x  s.t. x >= -5 via row (free variable, bounded by constraint).
  Model m;
  const VarId x = m.add_variable(-kInf, kInf, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, -5);
  m.add_coefficient(r, x, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
}

TEST(DenseSimplex, NegativeLowerBound) {
  // min x + y  s.t. x + y >= -3, x in [-2, 2], y in [-2, 2].  Opt -3.
  Model m;
  const VarId x = m.add_variable(-2, 2, 1);
  const VarId y = m.add_variable(-2, 2, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, -3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-8);
}

TEST(DenseSimplex, UpperBoundOnlyVariable) {
  // min -x with x in (-inf, 4]: optimum 4 via the flip transform.
  Model m;
  const VarId x = m.add_variable(-kInf, 4, -1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.value(x), 4.0, 1e-8);
}

TEST(DenseSimplex, FixedVariable) {
  Model m;
  const VarId x = m.add_variable(2, 2, 5);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-8);
  EXPECT_NEAR(s.value(y), 1.0, 1e-8);
  EXPECT_NEAR(s.objective, 11.0, 1e-8);
}

TEST(DenseSimplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through the optimum; Bland's rule must
  // still terminate.
  Model m;
  const VarId x = m.add_variable(0, kInf, -1);
  const VarId y = m.add_variable(0, kInf, -1);
  for (int i = 0; i < 4; ++i) {
    const RowId r = m.add_row(Sense::kLessEqual, 1);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
  }
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-8);
}

TEST(DenseSimplex, RedundantEqualityRows) {
  // x + y = 2 stated twice: phase 1 leaves a zero artificial basic.
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 2);
  for (int i = 0; i < 2; ++i) {
    const RowId r = m.add_row(Sense::kEqual, 2);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
  }
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.value(x), 2.0, 1e-8);
}

TEST(DenseSimplex, CoverageStyleLp) {
  // Mini replication LP shape: two classes, two nodes, min-max load.
  //   min z  s.t. p11 + p12 = 1; p21 + p22 = 1;
  //   load1 = 2*p11 + p21 <= z;  load2 = 2*p12 + p22 <= z.
  // Optimal z = 1.5 by splitting both classes evenly.
  Model m;
  const VarId z = m.add_variable(0, kInf, 1);
  const VarId p11 = m.add_variable(0, 1, 0);
  const VarId p12 = m.add_variable(0, 1, 0);
  const VarId p21 = m.add_variable(0, 1, 0);
  const VarId p22 = m.add_variable(0, 1, 0);
  const RowId c1 = m.add_row(Sense::kEqual, 1);
  m.add_coefficient(c1, p11, 1);
  m.add_coefficient(c1, p12, 1);
  const RowId c2 = m.add_row(Sense::kEqual, 1);
  m.add_coefficient(c2, p21, 1);
  m.add_coefficient(c2, p22, 1);
  const RowId l1 = m.add_row(Sense::kLessEqual, 0);
  m.add_coefficient(l1, p11, 2);
  m.add_coefficient(l1, p21, 1);
  m.add_coefficient(l1, z, -1);
  const RowId l2 = m.add_row(Sense::kLessEqual, 0);
  m.add_coefficient(l2, p12, 2);
  m.add_coefficient(l2, p22, 1);
  m.add_coefficient(l2, z, -1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-8);
}

TEST(DenseSimplex, DualsSatisfyStrongDualityOnStandardForm) {
  // min c'x, Ax >= b, x >= 0 with known optimum; check b'y == objective.
  Model m;
  const VarId x = m.add_variable(0, kInf, 2);
  const VarId y = m.add_variable(0, kInf, 3);
  const RowId r1 = m.add_row(Sense::kGreaterEqual, 4);
  m.add_coefficient(r1, x, 1);
  m.add_coefficient(r1, y, 2);
  const RowId r2 = m.add_row(Sense::kGreaterEqual, 3);
  m.add_coefficient(r2, x, 1);
  m.add_coefficient(r2, y, 1);
  const Solution s = solve_dense(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  ASSERT_EQ(s.duals.size(), 2u);
  EXPECT_NEAR(4 * s.duals[0] + 3 * s.duals[1], s.objective, 1e-6);
}

}  // namespace
}  // namespace nwlb::lp
