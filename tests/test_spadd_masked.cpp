// Tests for the companion primitives: sparse addition (add) and masked
// SpGEMM (multiply_masked), including the fused triangle count that runs it.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "apps/triangle_count.hpp"
#include "core/multiply.hpp"
#include "core/spadd.hpp"
#include "core/spgemm_masked.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Triplets = std::vector<std::tuple<I, I, double>>;

// --- add() ---------------------------------------------------------------

TEST(SpAdd, DisjointStructures) {
  const auto a = csr_from_triplets<I, double>(2, 3, Triplets{{0, 0, 1.0}});
  const auto b = csr_from_triplets<I, double>(2, 3, Triplets{{1, 2, 2.0}});
  const Matrix c = add(a, b);
  EXPECT_EQ(c.nnz(), 2);
  const std::vector<double> expected{1, 0, 0, 0, 0, 2};
  EXPECT_EQ(c.to_dense(), expected);
}

TEST(SpAdd, OverlappingEntriesSum) {
  const auto a = csr_from_triplets<I, double>(
      1, 3, Triplets{{0, 0, 1.0}, {0, 2, 5.0}});
  const auto b = csr_from_triplets<I, double>(
      1, 3, Triplets{{0, 0, 2.0}, {0, 1, 3.0}});
  const Matrix c = add(a, b);
  const std::vector<double> expected{3, 3, 5};
  EXPECT_EQ(c.to_dense(), expected);
  EXPECT_TRUE(c.rows_are_ascending());
}

TEST(SpAdd, AlphaBetaScaling) {
  const auto a = csr_from_triplets<I, double>(1, 2, Triplets{{0, 0, 1.0}});
  const auto b = csr_from_triplets<I, double>(1, 2, Triplets{{0, 0, 1.0}});
  const Matrix c = add(a, b, 2.0, -3.0);
  EXPECT_DOUBLE_EQ(c.vals[0], -1.0);
}

TEST(SpAdd, DimensionMismatchThrows) {
  const auto a = csr_identity<I, double>(2);
  const auto b = csr_identity<I, double>(3);
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(SpAdd, AddIntoRejectsAliasedDestination) {
  auto a = csr_identity<I, double>(3);
  const auto b = csr_identity<I, double>(3);
  EXPECT_THROW(add_into(a, b, a), std::invalid_argument);
  Matrix c;
  EXPECT_NO_THROW(add_into(a, b, c));
  EXPECT_EQ(c.nnz(), 3);
}

TEST(SpAdd, AddIntoMatchesAddOnBothPaths) {
  const auto g = rmat_matrix<I, double>(RmatParams::er(7, 4, 11));
  const auto h = rmat_matrix<I, double>(RmatParams::er(7, 4, 12));
  // Sorted (merge) path.
  const Matrix sum = add(g, h, 1.5, -0.5);
  Matrix into;
  add_into(g, h, into, 1.5, -0.5);
  EXPECT_EQ(into.rpts, sum.rpts);
  EXPECT_EQ(into.cols, sum.cols);
  EXPECT_EQ(into.vals, sum.vals);
  // Unsorted (hash) path must agree with the merge path.
  Matrix gu = g;
  gu.sortedness = Sortedness::kUnsorted;
  Matrix unsorted_sum;
  add_into(gu, h, unsorted_sum, 1.5, -0.5);
  EXPECT_EQ(unsorted_sum.rpts, sum.rpts);
  EXPECT_EQ(unsorted_sum.cols, sum.cols);
  for (std::size_t i = 0; i < sum.vals.size(); ++i) {
    EXPECT_DOUBLE_EQ(unsorted_sum.vals[i], sum.vals[i]);
  }
}

// The sharded driver's accumulation contract (like test_handle's replay
// test): a destination reused across rounds stops reallocating once its
// buffers have grown to the largest union — data pointers stay put.
TEST(SpAdd, AddIntoReusedDestinationKeepsPointersStable) {
  auto a = rmat_matrix<I, double>(RmatParams::er(8, 6, 13));
  auto b = rmat_matrix<I, double>(RmatParams::er(8, 6, 14));
  Matrix c;
  add_into(a, b, c);
  const Offset first_nnz = c.nnz();
  const Offset* rpts_ptr = c.rpts.data();
  const I* cols_ptr = c.cols.data();
  const double* vals_ptr = c.vals.data();
  for (int round = 0; round < 4; ++round) {
    for (auto& v : a.vals) v *= 1.5;
    for (auto& v : b.vals) v *= -0.5;
    add_into(a, b, c);
    EXPECT_EQ(c.nnz(), first_nnz) << "structure must be stable";
    EXPECT_EQ(c.rpts.data(), rpts_ptr) << "round " << round;
    EXPECT_EQ(c.cols.data(), cols_ptr) << "round " << round;
    EXPECT_EQ(c.vals.data(), vals_ptr) << "round " << round;
  }
  // A smaller union must also reuse the grown buffers (grow-only).
  const auto tiny = csr_from_triplets<I, double>(
      a.nrows, a.ncols, Triplets{{0, 0, 1.0}});
  add_into(tiny, tiny, c);
  EXPECT_EQ(c.cols.data(), cols_ptr) << "shrinking union reallocated";
  EXPECT_EQ(c.nnz(), 1);
}

TEST(SpAdd, LowerPlusUpperRebuildsOffDiagonal) {
  RmatParams p = RmatParams::er(7, 4, 99);
  p.symmetric = true;
  const auto g = rmat_matrix<I, double>(p);
  const auto lower = triangle_part(g, true);
  const auto upper = triangle_part(g, false);
  const Matrix rebuilt = add(lower, upper);
  // g minus its diagonal == lower + upper.
  Offset diag = 0;
  for (I i = 0; i < g.nrows; ++i) {
    for (Offset j = g.row_begin(i); j < g.row_end(i); ++j) {
      if (g.cols[static_cast<std::size_t>(j)] == i) ++diag;
    }
  }
  EXPECT_EQ(rebuilt.nnz() + diag, g.nnz());
}

TEST(SpAdd, UnsortedInputsTakeHashPath) {
  const auto a0 = rmat_matrix<I, double>(RmatParams::g500(6, 4, 5));
  const auto b0 = rmat_matrix<I, double>(RmatParams::er(6, 4, 6));
  const Matrix sorted_sum = add(a0, b0);
  const Matrix unsorted_sum =
      add(permute_columns_randomly(a0, 3), b0);  // mixed sortedness
  // Same totals (different column labels though!) — so compare against the
  // matching permutation instead: permute both.
  const auto ap = permute_columns_randomly(a0, 3);
  const auto bp = permute_columns_randomly(b0, 3);
  const Matrix perm_sum = add(ap, bp);
  const Matrix expected = permute_columns_randomly(sorted_sum, 3);
  EXPECT_TRUE(approx_equal(perm_sum, expected, 1e-12));
  EXPECT_TRUE(perm_sum.rows_are_ascending());  // hash path emits sorted
  (void)unsorted_sum;
}

TEST(SpAdd, CommutativityProperty) {
  const auto a = rmat_matrix<I, double>(RmatParams::g500(7, 6, 11));
  const auto b = rmat_matrix<I, double>(RmatParams::er(7, 6, 12));
  EXPECT_TRUE(approx_equal(add(a, b), add(b, a), 1e-12));
}

TEST(SpAdd, AdditionThenMultiplyDistributes) {
  // (A + B) * C == A*C + B*C
  const auto a = rmat_matrix<I, double>(RmatParams::er(5, 4, 1));
  const auto b = rmat_matrix<I, double>(RmatParams::er(5, 4, 2));
  const auto cmat = rmat_matrix<I, double>(RmatParams::g500(5, 4, 3));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix left = multiply(add(a, b), cmat, opts);
  const Matrix right = add(multiply(a, cmat, opts), multiply(b, cmat, opts));
  EXPECT_TRUE(approx_equal(left, right, 1e-9));
}

// --- multiply_masked() -----------------------------------------------------

TEST(MaskedSpGemm, EqualsMaskedFullProduct) {
  const auto a = rmat_matrix<I, double>(RmatParams::g500(7, 6, 21));
  const auto b = rmat_matrix<I, double>(RmatParams::er(7, 6, 22));
  const auto mask = rmat_matrix<I, double>(RmatParams::er(7, 8, 23));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix fused = multiply_masked(a, b, mask, opts);
  // Oracle: full product, then intersect with the mask structure.
  const Matrix full = multiply(a, b, opts);
  CooMatrix<I, double> kept;
  kept.nrows = full.nrows;
  kept.ncols = full.ncols;
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(full.ncols), 0);
  for (I i = 0; i < full.nrows; ++i) {
    for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
      flags[static_cast<std::size_t>(
          mask.cols[static_cast<std::size_t>(j)])] = 1;
    }
    for (Offset j = full.row_begin(i); j < full.row_end(i); ++j) {
      const I c = full.cols[static_cast<std::size_t>(j)];
      if (flags[static_cast<std::size_t>(c)] != 0) {
        kept.push_back(i, c, full.vals[static_cast<std::size_t>(j)]);
      }
    }
    for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
      flags[static_cast<std::size_t>(
          mask.cols[static_cast<std::size_t>(j)])] = 0;
    }
  }
  const Matrix oracle = csr_from_coo(std::move(kept));
  EXPECT_TRUE(approx_equal(fused, oracle, 1e-10));
}

TEST(MaskedSpGemm, EmptyMaskGivesEmptyResult) {
  const auto a = rmat_matrix<I, double>(RmatParams::er(5, 4, 1));
  Matrix mask(a.nrows, a.ncols);
  const Matrix c = multiply_masked(a, a, mask);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_NO_THROW(c.validate());
}

TEST(MaskedSpGemm, FullMaskEqualsPlainMultiply) {
  const auto a = rmat_matrix<I, double>(RmatParams::g500(5, 4, 7));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix full = multiply(a, a, opts);
  // Use the product itself as the mask: fused result must equal it.
  const Matrix fused = multiply_masked(a, a, full, opts);
  EXPECT_TRUE(approx_equal(fused, full, 1e-12));
}

TEST(MaskedSpGemm, ShapeChecks) {
  const auto a = csr_identity<I, double>(3);
  const auto bad_mask = csr_identity<I, double>(4);
  EXPECT_THROW(multiply_masked(a, a, bad_mask), std::invalid_argument);
}

TEST(MaskedSpGemm, UnsortedOutputOption) {
  const auto a = rmat_matrix<I, double>(RmatParams::er(6, 6, 31));
  SpGemmOptions opts;
  opts.sort_output = SortOutput::kNo;
  Matrix c = multiply_masked(a, a, a, opts);
  EXPECT_EQ(c.sortedness, Sortedness::kUnsorted);
  opts.sort_output = SortOutput::kYes;
  const Matrix sorted = multiply_masked(a, a, a, opts);
  c.sort_rows();
  EXPECT_EQ(c.cols, sorted.cols);
}

// --- fused triangle counting -------------------------------------------------

TEST(MaskedTriangleCount, MatchesUnfusedOnKnownGraphs) {
  // K5: 10 triangles.
  std::vector<std::pair<I, I>> edges;
  for (I i = 0; i < 5; ++i) {
    for (I j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  CooMatrix<I, double> coo;
  coo.nrows = 5;
  coo.ncols = 5;
  for (const auto& [u, v] : edges) {
    coo.push_back(u, v, 1.0);
    coo.push_back(v, u, 1.0);
  }
  const Matrix k5 = csr_from_coo(std::move(coo));
  EXPECT_EQ(apps::count_triangles_fused(k5).triangles, 10);
  EXPECT_EQ(apps::count_triangles_fused(k5).triangles,
            apps::count_triangles(k5).triangles);
}

TEST(MaskedTriangleCount, MatchesUnfusedOnRandomGraph) {
  RmatParams p = RmatParams::er(7, 8, 41);
  p.symmetric = true;
  const auto g = rmat_matrix<I, double>(p);
  const auto fused = apps::count_triangles_fused(g);
  const auto plain = apps::count_triangles(g);
  EXPECT_EQ(fused.triangles, plain.triangles);
  // The fused path keeps no wedge matrix and stages at most nnz(L) entries.
  EXPECT_EQ(fused.wedges.nnz(), Offset{0});
  EXPECT_LE(fused.spgemm_stats.nnz_out, g.nnz() / 2);
  EXPECT_LE(fused.spgemm_stats.nnz_out, plain.wedges.nnz());
}

}  // namespace
}  // namespace spgemm
