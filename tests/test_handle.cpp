// SpGemmHandle contract tests (core/spgemm_handle.hpp).
//
// The handle is the inspector-executor surface for every two-phase kernel:
// plan() persists the symbolic structure, capture streams and output
// skeleton; execute() replays numeric-only.  These tests pin down the
// contracts the redesign promises:
//   * plan + execute is BIT-identical to the one-shot multiply()/
//     multiply_over() for every two-phase kernel x semiring x sortedness x
//     thread count (unit-valued inputs make float products exact);
//   * second and later executes are numeric-only: no symbolic probes, no
//     reallocation of the pooled output;
//   * values may change between executes, structure may not (drift throws);
//   * one handle serves differently-sized plans back to back, growing its
//     pooled output monotonically;
//   * the handle-ported apps (Galerkin re-assembly, MCL) agree with their
//     one-shot formulations.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/structure_hash.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Triplets = std::vector<std::tuple<I, I, double>>;

Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m = rmat_matrix<I, double>(
      RmatParams::g500(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

// ---------------------------------------------------------------------------
// Sweep: kernel x semiring x sortedness x threads, handle vs one-shot.
// ---------------------------------------------------------------------------

enum class Algebra { kPlusTimes, kOrAnd };

struct HandleParam {
  Algorithm algo;
  Algebra algebra;
  SortOutput sort;
  int threads;
};

std::string handle_name(const ::testing::TestParamInfo<HandleParam>& info) {
  const HandleParam& p = info.param;
  std::string name = algorithm_name(p.algo);
  name += p.algebra == Algebra::kPlusTimes ? "_PlusTimes" : "_OrAnd";
  name += p.sort == SortOutput::kYes ? "_sorted" : "_unsorted";
  name += "_t" + std::to_string(p.threads);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class HandleSweep : public ::testing::TestWithParam<HandleParam> {};

/// Independent oracle: the fused per-tile one-shot driver, which shares
/// only the row-level primitives with the handle — not its plan/execute
/// orchestration.
template <typename SR>
Matrix fused_one_shot(const Matrix& a, const SpGemmOptions& opts, SR /*sr*/) {
  return multiply_over<SR>(a, a, opts);
}

TEST_P(HandleSweep, PlanExecuteBitIdenticalToOneShot) {
  const HandleParam& p = GetParam();
  const Matrix a = unit_valued_rmat(7, 8, 41);

  SpGemmOptions opts;
  opts.algorithm = p.algo;
  opts.sort_output = p.sort;
  opts.threads = p.threads;

  const Matrix one_shot = p.algebra == Algebra::kPlusTimes
                              ? multiply(a, a, opts)
                              : multiply_over<OrAnd>(a, a, opts);
  const Matrix fused = p.algebra == Algebra::kPlusTimes
                           ? fused_one_shot(a, opts, PlusTimes{})
                           : fused_one_shot(a, opts, OrAnd{});

  SpGemmHandle<I, double> handle(a, a, opts);
  Matrix into;
  Matrix pooled;
  if (p.algebra == Algebra::kPlusTimes) {
    handle.execute_into(a, a, into);
    pooled = handle.execute(a, a);
  } else {
    handle.execute_into(a, a, into, OrAnd{});
    pooled = handle.execute(a, a, OrAnd{});
  }
  expect_bitwise_equal(into, one_shot, "execute_into vs one-shot");
  expect_bitwise_equal(pooled, one_shot, "pooled execute vs one-shot");
  expect_bitwise_equal(into, fused, "handle vs fused driver");
  if (p.algebra == Algebra::kPlusTimes) {
    // Unit values make (+,*) products exact: the serial oracle must agree
    // bitwise after sorting.
    Matrix sorted = into;
    if (p.sort == SortOutput::kNo) sorted.sort_rows();
    expect_bitwise_equal(sorted, spgemm_reference(a, a),
                         "handle vs reference oracle");
  }
  EXPECT_NO_THROW(into.validate());
  EXPECT_EQ(into.sortedness, one_shot.sortedness);
  EXPECT_EQ(handle.executions(), 2u);
}

std::vector<HandleParam> build_handle_sweep() {
  std::vector<HandleParam> out;
  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
        Algorithm::kKkHash, Algorithm::kAdaptive}) {
    for (const Algebra algebra : {Algebra::kPlusTimes, Algebra::kOrAnd}) {
      for (const SortOutput sort : {SortOutput::kYes, SortOutput::kNo}) {
        for (const int threads : {1, 4}) {
          out.push_back({algo, algebra, sort, threads});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(TwoPhaseKernels, HandleSweep,
                         ::testing::ValuesIn(build_handle_sweep()),
                         handle_name);

// ---------------------------------------------------------------------------
// Numeric-only re-execution: values change, structure and buffers do not.
// ---------------------------------------------------------------------------

TEST(Handle, ValuesOnlyUpdatesAcrossExecutes) {
  Matrix a = unit_valued_rmat(7, 6, 9);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 3;
  SpGemmHandle<I, double> handle(a, a, opts);

  // Three value generations: 1, 2, 4 -> products scale by 1, 4, 16 exactly.
  const Matrix c1 = handle.execute(a, a);
  for (auto& v : a.vals) v *= 2.0;
  const Matrix c2 = handle.execute(a, a);
  for (auto& v : a.vals) v *= 2.0;
  const Matrix c3 = handle.execute(a, a);

  ASSERT_EQ(c1.cols, c2.cols);
  ASSERT_EQ(c1.cols, c3.cols);
  for (std::size_t i = 0; i < c1.vals.size(); ++i) {
    ASSERT_EQ(c2.vals[i], 4.0 * c1.vals[i]) << i;
    ASSERT_EQ(c3.vals[i], 16.0 * c1.vals[i]) << i;
  }
  // Each generation agrees with a from-scratch multiply of those values.
  expect_bitwise_equal(c3, multiply(a, a, opts), "3rd execute vs one-shot");
  EXPECT_EQ(handle.executions(), 3u);
}

TEST(Handle, SecondExecuteIsNumericOnlyAndAllocationFree) {
  const Matrix a = unit_valued_rmat(8, 8, 17);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.threads = 2;
  SpGemmStats stats;
  SpGemmHandle<I, double> handle(a, a, opts, &stats);
  EXPECT_GT(stats.plan_ms, 0.0);
  const std::uint64_t sym_probes_after_plan = stats.symbolic_probes;
  EXPECT_GT(sym_probes_after_plan, 0u);

  const Matrix& c1 = handle.execute(a, a, PlusTimes{}, &stats);
  const I* cols_ptr = c1.cols.data();
  const double* vals_ptr = c1.vals.data();
  const Offset* rpts_ptr = c1.rpts.data();

  for (int round = 2; round <= 4; ++round) {
    const Matrix& c = handle.execute(a, a, PlusTimes{}, &stats);
    // Numeric-only: the symbolic probe count never grows, and with full
    // capture the replay path performs zero numeric probes.
    EXPECT_EQ(stats.symbolic_probes, sym_probes_after_plan) << round;
    EXPECT_EQ(stats.numeric_probes, 0u) << round;
    EXPECT_EQ(stats.executions, static_cast<std::uint64_t>(round)) << round;
    EXPECT_GT(stats.execute_ms, 0.0);
    // Zero reallocation: the pooled output's buffers never move.
    EXPECT_EQ(c.cols.data(), cols_ptr) << round;
    EXPECT_EQ(c.vals.data(), vals_ptr) << round;
    EXPECT_EQ(c.rpts.data(), rpts_ptr) << round;
  }
}

// ---------------------------------------------------------------------------
// Structure drift.
// ---------------------------------------------------------------------------

TEST(Handle, RejectsStructureDrift) {
  const Matrix a = unit_valued_rmat(6, 4, 7);
  SpGemmHandle<I, double> handle(a, a);
  const Matrix other = unit_valued_rmat(6, 4, 8);
  Matrix out;
  EXPECT_THROW(handle.execute_into(other, other, out), SpGemmError);
  const Matrix wrong_dims = unit_valued_rmat(5, 4, 7);
  EXPECT_THROW(handle.execute_into(wrong_dims, wrong_dims, out), SpGemmError);
  // The failed attempts must not poison the handle.
  EXPECT_NO_THROW(handle.execute(a, a));
}

TEST(Handle, FingerprintCatchesEqualNnzDriftInACopy) {
  // Same dimensions AND same nnz, different column structure, handed in as
  // a different object (so the O(1) identity fast path cannot apply).
  const auto a = csr_from_triplets<I, double>(
      4, 4, Triplets{{0, 0, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}});
  const auto drifted = csr_from_triplets<I, double>(
      4, 4, Triplets{{0, 0, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}});
  SpGemmHandle<I, double> handle(a, a);
  Matrix out;
  EXPECT_THROW(handle.execute_into(drifted, drifted, out), SpGemmError);
  // A value-identical copy at a different address passes the full check.
  const Matrix copy = a;
  EXPECT_NO_THROW(handle.execute_into(copy, copy, out));
  EXPECT_TRUE(handle.structure_matches(copy, copy));
  EXPECT_FALSE(handle.structure_matches(drifted, drifted));
}

TEST(Handle, RejectsDimensionMismatchAtPlan) {
  const auto a = csr_identity<I, double>(3);
  const auto b = csr_identity<I, double>(4);
  try {
    SpGemmHandle<I, double> handle(a, b);
    FAIL() << "plan accepted mismatched inner dimensions";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
  }
}

TEST(Handle, RejectsOnePhaseKernelsAndUnplannedExecute) {
  const auto a = csr_identity<I, double>(8);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHeap;  // no symbolic phase to plan
  EXPECT_THROW((SpGemmHandle<I, double>(a, a, opts)), SpGemmError);
  SpGemmHandle<I, double> unplanned;
  EXPECT_FALSE(unplanned.planned());
  Matrix out;
  EXPECT_THROW(unplanned.execute_into(a, a, out), SpGemmError);
}

TEST(Handle, AutoResolvesToATwoPhaseKernel) {
  const Matrix a = unit_valued_rmat(6, 6, 3);
  SpGemmHandle<I, double> handle(a, a);  // kAuto default
  EXPECT_TRUE(is_two_phase(handle.algorithm()));
  expect_bitwise_equal(handle.execute(a, a),
                       multiply(a, a, SpGemmOptions{.algorithm =
                                                        handle.algorithm()}),
                       "auto-resolved handle vs one-shot");
}

// ---------------------------------------------------------------------------
// One handle, many plans: pooled output grows and shrinks logically.
// ---------------------------------------------------------------------------

TEST(Handle, PooledOutputGrowsAcrossDifferentlySizedPlans) {
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  SpGemmHandle<I, double> handle;

  const auto small = csr_identity<I, double>(32);
  handle.plan(small, small, opts);
  const Matrix c_small = handle.execute(small, small);
  expect_bitwise_equal(c_small, multiply(small, small, opts), "small");

  const Matrix big = unit_valued_rmat(8, 8, 5);
  handle.plan(big, big, opts);
  const Matrix c_big = handle.execute(big, big);
  expect_bitwise_equal(c_big, multiply(big, big, opts), "grown");
  EXPECT_GT(c_big.nnz(), c_small.nnz());

  // Shrinking plan on the same handle still executes correctly.
  handle.plan(small, small, opts);
  const Matrix c_small2 = handle.execute(small, small);
  expect_bitwise_equal(c_small2, c_small, "shrunk");
  EXPECT_EQ(handle.executions(), 1u);  // counter resets per plan
}

TEST(Handle, EnsurePlannedReplansOnStructureOrOptionChange) {
  const Matrix a = unit_valued_rmat(6, 4, 11);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.sort_output = SortOutput::kNo;
  SpGemmHandle<I, double> handle;
  EXPECT_TRUE(handle.ensure_planned(a, a, opts));    // first: builds
  EXPECT_FALSE(handle.ensure_planned(a, a, opts));   // same structure + opts
  const Matrix copy = a;                             // same structure, new object
  EXPECT_FALSE(handle.ensure_planned(copy, copy, opts));
  opts.sort_output = SortOutput::kYes;               // option change: replans
  EXPECT_TRUE(handle.ensure_planned(a, a, opts));
  EXPECT_TRUE(handle.execute(a, a).rows_are_ascending());
  const Matrix other = unit_valued_rmat(6, 4, 12);   // structure change
  EXPECT_TRUE(handle.ensure_planned(other, other, opts));
  expect_bitwise_equal(handle.execute(other, other),
                       multiply(other, other, opts), "after replan");
}

// ---------------------------------------------------------------------------
// One plan, many semirings: the captured structure is algebra-independent.
// ---------------------------------------------------------------------------

TEST(Handle, OnePlanServesManySemirings) {
  const Matrix a = unit_valued_rmat(6, 6, 21);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kKkHash;
  opts.sort_output = SortOutput::kNo;
  SpGemmHandle<I, double> handle(a, a, opts);

  const Matrix plus_times = handle.execute(a, a, PlusTimes{});
  const Matrix boolean = handle.execute(a, a, OrAnd{});
  ASSERT_EQ(plus_times.cols, boolean.cols);  // same captured structure
  for (const double v : boolean.vals) EXPECT_DOUBLE_EQ(v, 1.0);
  expect_bitwise_equal(boolean, multiply_over<OrAnd>(a, a, opts),
                       "OrAnd replay vs one-shot");
}

// ---------------------------------------------------------------------------
// Capture-budget fallback inside a persistent plan.
// ---------------------------------------------------------------------------

TEST(Handle, BudgetOverflowRowsStayExactAcrossExecutes) {
  const Matrix a = unit_valued_rmat(7, 8, 33);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.reuse_budget_bytes = 2048;  // forces a mix of capture and fallback
  SpGemmStats stats;
  SpGemmHandle<I, double> handle(a, a, opts, &stats);
  EXPECT_GT(stats.reuse_rows_captured, 0u);
  EXPECT_LT(stats.reuse_rows_captured, stats.reuse_rows_total);

  for (int round = 0; round < 3; ++round) {
    const Matrix& c = handle.execute(a, a, PlusTimes{}, &stats);
    EXPECT_GT(stats.numeric_probes, 0u);  // fallback rows re-probe
    expect_bitwise_equal(c, multiply(a, a, opts), "partial capture");
  }
}

// ---------------------------------------------------------------------------
// Handle-ported applications.
// ---------------------------------------------------------------------------

TEST(Handle, GalerkinReassemblerMatchesOneShotTripleProduct) {
  auto a = apps::poisson_2d<I, double>(24, 24);
  const auto p = apps::aggregation_prolongator<I, double>(a.nrows, 4);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;

  apps::GalerkinReassembler<I, double> rap(a, p, opts);
  for (int step = 0; step < 3; ++step) {
    // New stiffness values each step, structure fixed.
    for (std::size_t i = 0; i < a.vals.size(); ++i) {
      a.vals[i] *= 1.0 + 0.25 * static_cast<double>(step);
    }
    SpGemmStats ap_stats;
    SpGemmStats rap_stats;
    const Matrix& coarse = rap.reassemble(a, &ap_stats, &rap_stats);
    const auto reference = apps::galerkin_product(a, p, opts);
    expect_bitwise_equal(coarse, reference.coarse,
                         "reassemble step " + std::to_string(step));
    EXPECT_EQ(rap_stats.executions, static_cast<std::uint64_t>(step + 1));
  }
  EXPECT_EQ(rap.reassemblies(), 3u);
}

TEST(Handle, MarkovClusterReusesPlansNearFixedPoint) {
  // Two 4-cliques joined by one edge: MCL finds the two clusters, and the
  // expansion structure stabilizes well before convergence.
  Triplets t;
  const auto link = [&t](I u, I v) {
    t.emplace_back(u, v, 1.0);
    t.emplace_back(v, u, 1.0);
  };
  for (I i = 0; i < 4; ++i) {
    for (I j = static_cast<I>(i + 1); j < 4; ++j) {
      link(i, j);
      link(static_cast<I>(i + 4), static_cast<I>(j + 4));
    }
  }
  link(0, 4);
  const auto graph = csr_from_triplets<I, double>(8, 8, t);

  const auto result = apps::markov_cluster(graph);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.clusters, 2);
  // First sights run one-shot; a repeated structure plans once, then
  // replays.
  EXPECT_EQ(result.one_shots + result.plan_builds + result.plan_reuses,
            result.iterations);
  EXPECT_GT(result.plan_reuses, 0) << "fixed-point iterations must replay";
  // Vertices 0-3 together, 4-7 together.
  for (I v = 1; v < 4; ++v) {
    EXPECT_EQ(result.cluster_of[static_cast<std::size_t>(v)],
              result.cluster_of[0]);
    EXPECT_EQ(result.cluster_of[static_cast<std::size_t>(v + 4)],
              result.cluster_of[4]);
  }
}

// ---------------------------------------------------------------------------
// Incremental structure fingerprints (core/structure_hash.hpp).
// ---------------------------------------------------------------------------

TEST(Handle, InflateAndPruneHashMatchesFullFingerprint) {
  // The hash maintained during inflate_and_prune's scan must equal the
  // from-scratch fingerprint of its output — the invariant that lets
  // ensure_planned_hashed trust producer-maintained hashes.
  Matrix m = unit_valued_rmat(7, 8, 51);
  for (std::size_t i = 0; i < m.vals.size(); ++i) {
    m.vals[i] = 0.05 + 0.9 * static_cast<double>(i % 13) / 13.0;
  }
  std::uint64_t incremental = 0;
  const Matrix pruned =
      apps::detail::inflate_and_prune(m, 2.0, 0.05, &incremental);
  EXPECT_LT(pruned.nnz(), m.nnz()) << "pruning must actually drop entries";
  EXPECT_EQ(incremental, structure_fingerprint(pruned));
}

TEST(Handle, EnsurePlannedHashedSkipsAndCatchesDrift) {
  const Matrix a = unit_valued_rmat(6, 8, 57);
  const std::uint64_t fp = structure_fingerprint(a);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;

  SpGemmHandle<I, double> handle;
  EXPECT_TRUE(handle.ensure_planned_hashed(a, a, fp, fp, opts));
  SpGemmStats stats;
  EXPECT_FALSE(handle.ensure_planned_hashed(a, a, fp, fp, opts, &stats));
  expect_bitwise_equal(handle.execute(a, a), multiply(a, a, opts),
                       "hashed fast path");

  // Same-structure copy at a new address: the hashes still match, so no
  // replan — and the transferred identity fast path serves the new object.
  const Matrix copy = a;
  EXPECT_FALSE(handle.ensure_planned_hashed(copy, copy, fp, fp, opts));
  expect_bitwise_equal(handle.execute(copy, copy), multiply(a, a, opts),
                       "hashed fast path, new object");

  // A drifted structure arrives with its (different) fingerprint: replan.
  const Matrix other = unit_valued_rmat(6, 4, 58);
  const std::uint64_t fp_other = structure_fingerprint(other);
  EXPECT_NE(fp, fp_other);
  EXPECT_TRUE(
      handle.ensure_planned_hashed(other, other, fp_other, fp_other, opts));
  expect_bitwise_equal(handle.execute(other, other),
                       multiply(other, other, opts), "hashed replan");
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

TEST(Handle, EmptyAndTinyProducts) {
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix empty(4, 4);
  SpGemmHandle<I, double> handle(empty, empty, opts);
  const Matrix c = handle.execute(empty, empty);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.nrows, 4);

  const Matrix zero_dim(0, 0);
  SpGemmHandle<I, double> zero_handle(zero_dim, zero_dim, opts);
  EXPECT_EQ(zero_handle.execute(zero_dim, zero_dim).nnz(), 0);
}

}  // namespace
}  // namespace spgemm
