// Tests for structural matrix operations: transpose, column permutation,
// extraction, triangular splitting, masked reduction, comparison.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"
#include "matrix/triangular.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Triplets = std::vector<std::tuple<I, I, double>>;

TEST(Transpose, SmallKnown) {
  const auto a = csr_from_triplets<I, double>(
      2, 3, Triplets{{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const auto at = transpose(a);
  EXPECT_EQ(at.nrows, 3);
  EXPECT_EQ(at.ncols, 2);
  const std::vector<double> expected{1, 0, 0, 3, 2, 0};
  EXPECT_EQ(at.to_dense(), expected);
  EXPECT_NO_THROW(at.validate());
}

TEST(Transpose, InvolutionOnRandom) {
  const auto a =
      rmat_matrix<I, double>(RmatParams::g500(7, 4, /*seed=*/11));
  const auto att = transpose(transpose(a));
  EXPECT_TRUE(approx_equal(a, att));
}

TEST(Transpose, OutputIsSorted) {
  const auto a = rmat_matrix<I, double>(RmatParams::er(7, 8, 13));
  const auto at = transpose(a);
  EXPECT_TRUE(at.rows_are_ascending());
}

TEST(PermuteColumns, PreservesStructureUpToRelabel) {
  const auto a = rmat_matrix<I, double>(RmatParams::er(6, 4, 17));
  const auto p = permute_columns_randomly(a, 99);
  EXPECT_EQ(p.nnz(), a.nnz());
  EXPECT_EQ(p.sortedness, Sortedness::kUnsorted);
  // Row sums are invariant under a column permutation.
  for (I i = 0; i < a.nrows; ++i) {
    double sa = 0.0;
    double sp = 0.0;
    for (Offset j = a.row_begin(i); j < a.row_end(i); ++j) {
      sa += a.vals[static_cast<std::size_t>(j)];
    }
    for (Offset j = p.row_begin(i); j < p.row_end(i); ++j) {
      sp += p.vals[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(sa, sp, 1e-12);
  }
}

TEST(PermuteColumns, DeterministicBySeed) {
  const auto a = rmat_matrix<I, double>(RmatParams::er(6, 4, 17));
  const auto p1 = permute_columns_randomly(a, 7);
  const auto p2 = permute_columns_randomly(a, 7);
  EXPECT_EQ(p1.cols, p2.cols);
  const auto p3 = permute_columns_randomly(a, 8);
  EXPECT_NE(p1.cols, p3.cols);
}

TEST(ExtractColumns, KeepsSelectedOnly) {
  const auto a = csr_from_triplets<I, double>(
      2, 4,
      Triplets{{0, 0, 1.0}, {0, 1, 2.0}, {0, 3, 3.0}, {1, 2, 4.0}});
  const auto b = extract_columns(a, std::vector<I>{1, 3});
  EXPECT_EQ(b.nrows, 2);
  EXPECT_EQ(b.ncols, 2);
  const std::vector<double> expected{2, 3, 0, 0};
  EXPECT_EQ(b.to_dense(), expected);
}

TEST(ExtractColumns, ThrowsOnBadColumn) {
  const auto a = csr_identity<I, double>(3);
  EXPECT_THROW(extract_columns(a, std::vector<I>{5}), std::out_of_range);
}

TEST(SampleColumns, SortedUniqueWithinRange) {
  const auto cols = sample_columns<I>(1000, 100, 42);
  ASSERT_EQ(cols.size(), 100u);
  for (std::size_t i = 1; i < cols.size(); ++i) {
    EXPECT_LT(cols[i - 1], cols[i]);
  }
  EXPECT_GE(cols.front(), 0);
  EXPECT_LT(cols.back(), 1000);
}

TEST(SampleColumns, AllColumnsWhenKEqualsN) {
  const auto cols = sample_columns<I>(16, 16, 1);
  for (I i = 0; i < 16; ++i) EXPECT_EQ(cols[static_cast<std::size_t>(i)], i);
}

TEST(ApproxEqual, DetectsValueDifference) {
  const auto a = csr_from_triplets<I, double>(1, 2, Triplets{{0, 0, 1.0}});
  auto b = a;
  EXPECT_TRUE(approx_equal(a, b));
  b.vals[0] = 1.0 + 1e-6;
  EXPECT_FALSE(approx_equal(a, b, 1e-9));
  EXPECT_TRUE(approx_equal(a, b, 1e-3));
}

TEST(ApproxEqual, OrderInsensitiveWithinRows) {
  const auto a = csr_from_triplets<I, double>(
      1, 4, Triplets{{0, 1, 1.0}, {0, 3, 2.0}});
  auto b = a;
  std::swap(b.cols[0], b.cols[1]);
  std::swap(b.vals[0], b.vals[1]);
  b.sortedness = Sortedness::kUnsorted;
  EXPECT_TRUE(approx_equal(a, b));
}

TEST(ApproxEqual, NonFiniteValuesCompareExactly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto one = [](double v) {
    return csr_from_triplets<I, double>(1, 1, Triplets{{0, 0, v}});
  };
  EXPECT_FALSE(approx_equal(one(kInf), one(1.0)));
  EXPECT_FALSE(approx_equal(one(kInf), one(-kInf)));
  EXPECT_FALSE(approx_equal(one(kNan), one(1.0)));
  EXPECT_FALSE(approx_equal(one(1.0), one(kNan)));
  EXPECT_TRUE(approx_equal(one(kInf), one(kInf)));
  EXPECT_TRUE(approx_equal(one(kNan), one(kNan)));
}

TEST(ApproxEqual, DimensionMismatch) {
  const auto a = csr_identity<I, double>(2);
  const auto b = csr_identity<I, double>(3);
  EXPECT_FALSE(approx_equal(a, b));
}

TEST(MaskedSum, CountsOverlapOnly) {
  // c = [[1,2],[3,4]] dense-ish; mask selects (0,1) and (1,0).
  const auto c = csr_from_triplets<I, double>(
      2, 2, Triplets{{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {1, 1, 4.0}});
  const auto mask = csr_from_triplets<I, double>(
      2, 2, Triplets{{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(masked_sum(c, mask), 5.0);
}

TEST(MaskedSum, EmptyMaskGivesZero) {
  const auto c = csr_identity<I, double>(4);
  CsrMatrix<I, double> mask(4, 4);
  EXPECT_DOUBLE_EQ(masked_sum(c, mask), 0.0);
}

TEST(SymmetricPermute, RelabelsBothSides) {
  // 0->2, 1->0, 2->1
  const auto a = csr_from_triplets<I, double>(
      3, 3, Triplets{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}});
  const auto p = symmetric_permute(a, std::vector<I>{2, 0, 1});
  // entry (0,1)=1 -> (2,0); (1,2)=2 -> (0,1); (2,0)=3 -> (1,2)
  const std::vector<double> expected{0, 2, 0, 0, 0, 3, 1, 0, 0};
  EXPECT_EQ(p.to_dense(), expected);
  EXPECT_TRUE(p.rows_are_ascending());
}

TEST(DegreeOrder, SortsByRowNnz) {
  const auto a = csr_from_triplets<I, double>(
      3, 3,
      Triplets{{0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}, {1, 0, 1.0},
               {2, 0, 1.0}, {2, 1, 1.0}});
  const auto perm = degree_order(a);
  // degrees: row0=3, row1=1, row2=2 -> ranks: row1 gets 0, row2 1, row0 2.
  EXPECT_EQ(perm, (std::vector<I>{2, 0, 1}));
}

TEST(TrianglePart, SplitsStrictly) {
  const auto a = csr_from_triplets<I, double>(
      3, 3,
      Triplets{{0, 0, 1.0}, {0, 2, 2.0}, {1, 0, 3.0}, {2, 1, 4.0},
               {2, 2, 5.0}});
  const auto lower = triangle_part(a, true);
  const auto upper = triangle_part(a, false);
  // Strict triangles: diagonal dropped everywhere.
  EXPECT_EQ(lower.nnz(), 2);  // (1,0), (2,1)
  EXPECT_EQ(upper.nnz(), 1);  // (0,2)
  for (I i = 0; i < 3; ++i) {
    for (Offset j = lower.row_begin(i); j < lower.row_end(i); ++j) {
      EXPECT_LT(lower.cols[static_cast<std::size_t>(j)], i);
    }
    for (Offset j = upper.row_begin(i); j < upper.row_end(i); ++j) {
      EXPECT_GT(upper.cols[static_cast<std::size_t>(j)], i);
    }
  }
}

TEST(PrepareTriangleSplit, LowerPlusUpperIsOffDiagonal) {
  auto g = rmat_matrix<I, double>([] {
    RmatParams p = RmatParams::er(6, 4, 23);
    p.symmetric = true;
    return p;
  }());
  const auto split = prepare_triangle_split(g);
  // Every off-diagonal entry of the reordered matrix lands in exactly one
  // triangle.
  Offset diag = 0;
  for (I i = 0; i < split.reordered.nrows; ++i) {
    for (Offset j = split.reordered.row_begin(i);
         j < split.reordered.row_end(i); ++j) {
      if (split.reordered.cols[static_cast<std::size_t>(j)] == i) ++diag;
    }
  }
  EXPECT_EQ(split.lower.nnz() + split.upper.nnz() + diag,
            split.reordered.nnz());
  // Degree ordering: row degrees of the reordered matrix ascend.
  for (I i = 1; i < split.reordered.nrows; ++i) {
    EXPECT_LE(split.reordered.row_nnz(i - 1), split.reordered.row_nnz(i));
  }
}

}  // namespace
}  // namespace spgemm
