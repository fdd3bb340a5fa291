// Pinned pivot sequences.  Each solve below compares its iteration,
// phase-1 and refactorization counts, and an FNV-1a digest of the primal
// point, the row duals and the final basis, against values recorded before
// pricing moved to a maintained candidate set.  Any change to pricing, the
// ratio test or the update arithmetic that alters a single pivot fails
// here, independently of the replay digests downstream of the solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/problem.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "lp/revised_simplex.h"
#include "lp_shaped.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::lp {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    for (const T& x : v) bytes(&x, sizeof x);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of everything a pivot sequence determines: x, duals and basis.
std::uint64_t digest(const Solution& s) {
  Fnv1a h;
  h.values(s.x);
  h.values(s.duals);
  h.values(s.basis.basic);
  h.values(s.basis.nonbasic_state);
  return h.value();
}

struct Golden {
  int iterations;
  int phase1_iterations;
  int refactorizations;
  std::uint64_t digest;
};

void expect_golden(const Solution& s, const Golden& g) {
  ASSERT_EQ(s.status, Status::kOptimal) << to_string(s.status);
  EXPECT_EQ(s.iterations, g.iterations);
  EXPECT_EQ(s.phase1_iterations, g.phase1_iterations);
  EXPECT_EQ(s.refactorizations, g.refactorizations);
  EXPECT_EQ(digest(s), g.digest) << std::hex << "0x" << digest(s);
}

// The cold replication-LP solve a controller runs at bootstrap and after
// a failover on Sprint (52 PoPs, 2652 classes): 2757 rows, 21521
// structural columns.
TEST(LpGolden, SprintBootstrapSolve) {
  const topo::Topology topology = topo::topology_by_name("Sprint");
  const traffic::TrafficMatrix tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  const core::Scenario scenario(topology, tm);
  const core::ProblemInput input = scenario.problem(core::Architecture::kPathReplicate);
  const core::ReplicationLp formulation(input);
  const Solution s = solve(formulation.model());
  expect_golden(s, {9394, 33, 91, 0xfb557bfaefb7f0aaULL});
}

// Bland's rule from the first degenerate step: pricing takes the smallest
// eligible index on every iteration.
TEST(LpGolden, BlandShapedSolve) {
  const ShapedLp shaped = make_shaped(40, 6, 0xb1a4d);
  Options opt;
  opt.stall_limit = 0;
  expect_golden(solve_revised(shaped.model, opt), {1032, 29, 11, 0x69b2ada50c15db52ULL});
}

// Per-class delta re-solve: pricing restricted to one drifted class plus
// the logicals, widened once the focused columns are clean.
TEST(LpGolden, FocusedDeltaResolve) {
  const ShapedLp base = make_shaped(60, 10, 0xde17a);
  const Solution base_solution = solve_revised(base.model);
  ASSERT_EQ(base_solution.status, Status::kOptimal);
  const ShapedLp drifted = make_shaped(60, 10, 0xde17a, 3.0, 11);
  Options opt;
  const std::vector<int> focus = drifted.columns_of({11});
  opt.priority_columns = &focus;
  expect_golden(solve_revised(drifted.model, opt, &base_solution.basis),
                {58, 24, 1, 0xfb6b34bd39d16504ULL});
}

// A warm basis made primal infeasible by a tightened bound: the solve
// restarts in phase 1 from the old basis.
TEST(LpGolden, WarmStartThroughPhaseOne) {
  ShapedLp shaped = make_shaped(40, 6, 0x9a5e1);
  const Solution base_solution = solve_revised(shaped.model);
  ASSERT_EQ(base_solution.status, Status::kOptimal);
  // Close the largest share of class 0: its basic value now violates the
  // new upper bound.
  VarId closed = shaped.p[0][0];
  for (const VarId v : shaped.p[0])
    if (base_solution.value(v) > base_solution.value(closed)) closed = v;
  ASSERT_GT(base_solution.value(closed), 0.0);
  shaped.model.set_bounds(closed, 0.0, 0.0);
  const Solution warm = solve_revised(shaped.model, {}, &base_solution.basis);
  EXPECT_GT(warm.phase1_iterations, 0);
  expect_golden(warm, {21, 8, 1, 0x937e552eb873570bULL});
}

}  // namespace
}  // namespace nwlb::lp
