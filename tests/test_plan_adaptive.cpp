// Tests for the inspector-executor SpGemmHandle (plan once, execute many)
// and the row-adaptive poly-algorithm kernel.  Deeper handle coverage lives
// in test_handle.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"
#include "core/spgemm_twophase.hpp"
#include "matrix/generators.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Triplets = std::vector<std::tuple<I, I, double>>;

// --- SpGemmHandle as inspector-executor plan ---------------------------------------------------------------

TEST(HandleAsPlan, ExecuteMatchesDirectMultiply) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(8, 8, 3));
  SpGemmOptions opts;
  opts.threads = 3;
  SpGemmHandle<I, double> plan(a, a, opts);
  const Matrix via_plan = plan.execute(a, a);
  opts.algorithm = Algorithm::kHash;
  const Matrix direct = multiply(a, a, opts);
  EXPECT_EQ(via_plan.rpts, direct.rpts);
  EXPECT_EQ(via_plan.cols, direct.cols);
  EXPECT_TRUE(approx_equal(via_plan, direct, 1e-12));
}

TEST(HandleAsPlan, ReportsSymbolicQuantities) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(8, 6, 5));
  SpGemmHandle<I, double> plan(a, a);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  EXPECT_EQ(plan.nnz_out(), stats.nnz_out);
  EXPECT_EQ(plan.flop(), stats.flop);
}

TEST(HandleAsPlan, ReexecutesWithNewValues) {
  // The inspector-executor use case: same structure, changing values.
  Matrix a = rmat_matrix<I, double>(RmatParams::g500(7, 6, 9));
  SpGemmHandle<I, double> plan(a, a);
  const Matrix c1 = plan.execute(a, a);

  Matrix a2 = a;
  for (auto& v : a2.vals) v *= 2.0;
  const Matrix c2 = plan.execute(a2, a2);
  EXPECT_EQ(c1.cols, c2.cols);
  for (std::size_t i = 0; i < c1.vals.size(); ++i) {
    ASSERT_NEAR(c2.vals[i], 4.0 * c1.vals[i], 1e-9);
  }
}

TEST(HandleAsPlan, RepeatedExecutionIsDeterministic) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(7, 4, 2));
  SpGemmHandle<I, double> plan(a, a);
  const Matrix c1 = plan.execute(a, a);
  const Matrix c2 = plan.execute(a, a);
  EXPECT_EQ(c1.cols, c2.cols);
  EXPECT_EQ(c1.vals, c2.vals);
}

TEST(HandleAsPlan, RejectsStructureDrift) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(6, 4, 7));
  SpGemmHandle<I, double> plan(a, a);
  const Matrix other = rmat_matrix<I, double>(RmatParams::er(6, 4, 8));
  if (other.nnz() != a.nnz()) {
    EXPECT_THROW(plan.execute(other, other), SpGemmError);
  }
  const Matrix wrong_dims = rmat_matrix<I, double>(RmatParams::er(5, 4, 7));
  EXPECT_THROW(plan.execute(wrong_dims, wrong_dims), SpGemmError);
}

TEST(HandleAsPlan, FingerprintCatchesEqualNnzStructureDrift) {
  // Same dimensions AND same nnz, different column structure: the weak
  // dimension/nnz check cannot see this, the fingerprint must.
  const auto a = csr_from_triplets<I, double>(
      4, 4, Triplets{{0, 0, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}});
  const auto drifted = csr_from_triplets<I, double>(
      4, 4, Triplets{{0, 0, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}});
  SpGemmHandle<I, double> plan(a, a);
  EXPECT_THROW(plan.execute(drifted, drifted), SpGemmError);
  EXPECT_NO_THROW(plan.execute(a, a));
}

TEST(HandleAsPlan, RejectsDimensionMismatchAtBuild) {
  const auto a = csr_identity<I, double>(3);
  const auto b = csr_identity<I, double>(4);
  EXPECT_THROW((SpGemmHandle<I, double>(a, b)), SpGemmError);
}

TEST(HandleAsPlan, ExecuteOverSemiring) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(6, 4, 4));
  SpGemmHandle<I, double> plan(a, a);
  const Matrix boolean = plan.execute(a, a, OrAnd{});
  for (const double v : boolean.vals) EXPECT_DOUBLE_EQ(v, 1.0);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix plain = multiply(a, a, opts);
  EXPECT_EQ(boolean.cols, plain.cols);  // same structure
}

TEST(HandleAsPlan, UnsortedOutputOption) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(6, 6, 13));
  SpGemmOptions opts;
  opts.sort_output = SortOutput::kNo;
  SpGemmHandle<I, double> plan(a, a, opts);
  Matrix c = plan.execute(a, a);
  EXPECT_EQ(c.sortedness, Sortedness::kUnsorted);
  opts.sort_output = SortOutput::kYes;
  SpGemmHandle<I, double> sorted_plan(a, a, opts);
  const Matrix cs = sorted_plan.execute(a, a);
  c.sort_rows();
  EXPECT_EQ(c.cols, cs.cols);
}

// --- Adaptive kernel ------------------------------------------------------------

TEST(Adaptive, MixedRegimeMatrixMatchesReference) {
  // Construct a matrix that genuinely hits all three regimes: a dense row
  // (SPA), medium rows (hash) and near-empty rows (tiny).
  constexpr I kN = 512;
  Triplets t;
  for (I j = 0; j < kN; ++j) t.emplace_back(0, j, 0.5);  // dense row 0
  for (I i = 1; i < 64; ++i) {                           // medium rows
    for (I j = 0; j < 40; ++j) {
      t.emplace_back(i, (i * 37 + j * 11) % kN, 1.0);
    }
  }
  for (I i = 64; i < kN; ++i) {  // tiny rows
    t.emplace_back(i, (i * 7) % kN, 2.0);
  }
  const auto a = csr_from_triplets<I, double>(kN, kN, t);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kAdaptive;
  opts.threads = 3;
  const Matrix c = multiply(a, a, opts);
  EXPECT_TRUE(approx_equal(c, spgemm_reference(a, a), 1e-9));
  EXPECT_TRUE(c.rows_are_ascending());
}

TEST(Adaptive, ThresholdKnobsRespected) {
  using Policy = detail::AdaptivePlanPolicy<I, double>;
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(7, 8, 15));
  const Matrix expected = spgemm_reference(a, a);
  for (const Offset tiny : {Offset{0}, Offset{16}, Offset{1000000}}) {
    for (const Offset divisor : {Offset{1}, Offset{2}, Offset{100000}}) {
      AdaptiveThresholds th;
      th.tiny_flop = tiny;
      th.dense_divisor = divisor;
      SpGemmOptions opts;
      opts.algorithm = Algorithm::kAdaptive;
      const Matrix c = detail::spgemm_two_phase<I, double>(
          a, a, opts, Policy::for_product(a.ncols, th), nullptr);
      ASSERT_TRUE(approx_equal(c, expected, 1e-9))
          << "tiny=" << tiny << " divisor=" << divisor;
    }
  }
}

TEST(Adaptive, RejectsDenseDivisorBelowOne) {
  // The dense cut is ncols / dense_divisor, so a divisor below one is
  // rejected before it divides.
  using Policy = detail::AdaptivePlanPolicy<I, double>;
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(6, 4, 29));
  for (const Offset divisor : {Offset{0}, Offset{-2}}) {
    AdaptiveThresholds th;
    th.dense_divisor = divisor;
    EXPECT_THROW(Policy::for_product(a.ncols, th), std::invalid_argument)
        << divisor;
  }
}

TEST(Adaptive, TinyRowsAlwaysSortedEvenWhenUnsortedRequested) {
  // The tiny-row path emits sorted rows regardless; the matrix-level claim
  // must still be kUnsorted (weakest guarantee) and values must be right.
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(6, 2, 21));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kAdaptive;
  opts.sort_output = SortOutput::kNo;
  const Matrix c = multiply(a, a, opts);
  EXPECT_TRUE(approx_equal(c, spgemm_reference(a, a), 1e-9));
}

TEST(Adaptive, StatsFilled) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(8, 8, 25));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kAdaptive;
  SpGemmStats stats;
  const Matrix c = multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.nnz_out, c.nnz());
  EXPECT_GT(stats.symbolic_ms, 0.0);
  EXPECT_GT(stats.numeric_ms, 0.0);
}

TEST(Adaptive, SemiringSupportThroughDispatcher) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(6, 4, 27));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kAdaptive;
  const Matrix boolean = multiply_over<OrAnd>(a, a, opts);
  for (const double v : boolean.vals) EXPECT_DOUBLE_EQ(v, 1.0);
}

}  // namespace
}  // namespace spgemm
