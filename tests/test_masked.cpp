// Tests for masked SpGEMM (multiply_masked), including the fused triangle
// count that runs it.
#include <gtest/gtest.h>

#include <vector>

#include "apps/triangle_count.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_masked.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

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
