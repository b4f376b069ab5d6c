// Tests for the Table 4 recipe: every cell of the paper's table, plus the
// feature-extraction path from real matrices.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "core/recipe.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/generators.hpp"
#include "matrix/rmat.hpp"

namespace spgemm::recipe {
namespace {

Scenario real(Operation op, SortOutput sorted, double cr) {
  Scenario s;
  s.origin = DataOrigin::kReal;
  s.op = op;
  s.sorted = sorted;
  s.compression_ratio = cr;
  return s;
}

Scenario synthetic(Operation op, SortOutput sorted, double ef, double skew) {
  Scenario s;
  s.origin = DataOrigin::kSynthetic;
  s.op = op;
  s.sorted = sorted;
  s.edge_factor = ef;
  s.skew = skew;
  return s;
}

// --- Table 4(a): real data --------------------------------------------------

TEST(RecipeTable4a, SquareSortedIsAlwaysHash) {
  EXPECT_EQ(select(real(Operation::kSquare, SortOutput::kYes, 10.0)),
            Algorithm::kHash);
  EXPECT_EQ(select(real(Operation::kSquare, SortOutput::kYes, 1.2)),
            Algorithm::kHash);
}

TEST(RecipeTable4a, SquareUnsortedSplitsOnCompression) {
  EXPECT_EQ(select(real(Operation::kSquare, SortOutput::kNo, 10.0)),
            Algorithm::kSpa1p);  // MKL-inspector stand-in
  EXPECT_EQ(select(real(Operation::kSquare, SortOutput::kNo, 1.2)),
            Algorithm::kHash);
}

TEST(RecipeTable4a, TriangularSplitsOnCompression) {
  EXPECT_EQ(select(real(Operation::kTriangular, SortOutput::kYes, 10.0)),
            Algorithm::kHash);
  EXPECT_EQ(select(real(Operation::kTriangular, SortOutput::kYes, 1.2)),
            Algorithm::kHeap);
}

TEST(RecipeTable4a, BoundaryIsExclusiveAtTwo) {
  // CR exactly 2 belongs to the Low CR column (paper: "Low CR (<= 2)").
  EXPECT_EQ(select(real(Operation::kTriangular, SortOutput::kYes, 2.0)),
            Algorithm::kHeap);
}

// --- Table 4(b): synthetic data ---------------------------------------------

TEST(RecipeTable4b, SquareSorted) {
  // Sparse/uniform, sparse/skewed, dense/uniform -> Heap; dense/skewed -> Hash.
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kYes, 4, 2)),
            Algorithm::kHeap);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kYes, 4, 50)),
            Algorithm::kHeap);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kYes, 16, 2)),
            Algorithm::kHeap);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kYes, 16, 50)),
            Algorithm::kHash);
}

TEST(RecipeTable4b, SquareUnsorted) {
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kNo, 4, 2)),
            Algorithm::kHashVector);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kNo, 4, 50)),
            Algorithm::kHashVector);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kNo, 16, 2)),
            Algorithm::kHashVector);
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kNo, 16, 50)),
            Algorithm::kHash);
}

TEST(RecipeTable4b, TallSkinny) {
  EXPECT_EQ(
      select(synthetic(Operation::kTallSkinny, SortOutput::kYes, 4, 50)),
      Algorithm::kHash);
  EXPECT_EQ(
      select(synthetic(Operation::kTallSkinny, SortOutput::kYes, 16, 50)),
      Algorithm::kHashVector);
  EXPECT_EQ(select(synthetic(Operation::kTallSkinny, SortOutput::kNo, 4, 50)),
            Algorithm::kHash);
  EXPECT_EQ(
      select(synthetic(Operation::kTallSkinny, SortOutput::kNo, 16, 50)),
      Algorithm::kHash);
}

TEST(RecipeTable4b, EdgeFactorBoundaryIsExclusiveAtEight) {
  // EF exactly 8 is "Sparse (EF <= 8)".
  EXPECT_EQ(select(synthetic(Operation::kSquare, SortOutput::kYes, 8, 50)),
            Algorithm::kHeap);
}

// --- Recipe always returns a runnable kernel ---------------------------------

TEST(Recipe, NeverReturnsAutoOrReference) {
  for (const Operation op : {Operation::kSquare, Operation::kTriangular,
                             Operation::kTallSkinny}) {
    for (const SortOutput sort : {SortOutput::kYes, SortOutput::kNo}) {
      for (const double cr : {0.5, 1.5, 2.5, 30.0}) {
        const Algorithm a = select(real(op, sort, cr));
        EXPECT_NE(a, Algorithm::kAuto);
        EXPECT_NE(a, Algorithm::kReference);
      }
      for (const double ef : {2.0, 8.0, 32.0}) {
        for (const double skew : {1.0, 100.0}) {
          const Algorithm a = select(synthetic(op, sort, ef, skew));
          EXPECT_NE(a, Algorithm::kAuto);
          EXPECT_NE(a, Algorithm::kReference);
        }
      }
    }
  }
}

TEST(Recipe, UnsortedCellsReturnUnsortedCapableKernels) {
  for (const Operation op : {Operation::kSquare, Operation::kTallSkinny}) {
    for (const double ef : {2.0, 32.0}) {
      for (const double skew : {1.0, 100.0}) {
        const Algorithm a = select(synthetic(op, SortOutput::kNo, ef, skew));
        EXPECT_TRUE(supports_unsorted(a)) << algorithm_name(a);
      }
    }
  }
}

// --- select_for: feature extraction from matrices ----------------------------

TEST(RecipeSelectFor, SkewedDenseSyntheticPicksHash) {
  const auto a = rmat_matrix<std::int32_t, double>(
      RmatParams::g500(10, 16, 3));
  const Algorithm algo =
      select_for(a, a, Operation::kSquare, SortOutput::kYes,
                 DataOrigin::kSynthetic);
  EXPECT_EQ(algo, Algorithm::kHash);
}

TEST(RecipeSelectFor, UniformSparseSyntheticPicksHeap) {
  const auto a = rmat_matrix<std::int32_t, double>(RmatParams::er(10, 4, 3));
  const Algorithm algo =
      select_for(a, a, Operation::kSquare, SortOutput::kYes,
                 DataOrigin::kSynthetic);
  EXPECT_EQ(algo, Algorithm::kHeap);
}

TEST(RecipeSelectFor, BandedRealWithNnzHintPicksByCompression) {
  const auto a = banded_matrix<std::int32_t, double>(4096, 33, 5);
  // With an nnz(C) hint implying high CR, the LxU rule must return Hash.
  const Offset flop = count_flops(a, a);
  const Algorithm algo =
      select_for(a, a, Operation::kTriangular, SortOutput::kYes,
                 DataOrigin::kReal, flop / 10);  // CR = 10
  EXPECT_EQ(algo, Algorithm::kHash);
}

// --- resolve(): Table 4 plus the dense-row rule --------------------------------

/// A (4 x 4) times B (4 x ncols) product whose Table 4 pick is Hash (square,
/// sorted, real data), with B's entries at its first and last columns.
template <ValueType VT>
std::pair<CsrMatrix<std::int32_t, VT>, CsrMatrix<std::int32_t, VT>>
narrow_pair(std::int32_t ncols) {
  CooMatrix<std::int32_t, VT> a{4, 4};
  CooMatrix<std::int32_t, VT> b{4, ncols};
  for (std::int32_t i = 0; i < 4; ++i) {
    a.push_back(i, i, VT{1});
    a.push_back(i, (i + 1) % 4, VT{2});
    b.push_back(i, 0, VT{1});
    b.push_back(i, ncols - 1 - i, VT{3});
  }
  return {csr_from_coo(std::move(a)), csr_from_coo(std::move(b))};
}

constexpr auto kDenseRowCols =
    static_cast<std::int32_t>(kDenseRowMaxBytes / sizeof(double));

TEST(RecipeResolve, DenseRowRuleSwitchesHashToSpa1pUpToTheThreshold) {
  ASSERT_EQ(kDenseRowCols, 32768);  // 256 KiB of doubles
  const auto [a, at] = narrow_pair<double>(kDenseRowCols);
  ASSERT_EQ(select_for(a, at, Operation::kSquare, SortOutput::kYes),
            Algorithm::kHash);
  EXPECT_EQ(resolve(Algorithm::kAuto, a, at, SortOutput::kYes),
            Algorithm::kSpa1p);
  EXPECT_EQ(resolve(Algorithm::kAuto, a, at, SortOutput::kNo),
            Algorithm::kSpa1p);

  const auto [w, above] = narrow_pair<double>(kDenseRowCols + 1);
  EXPECT_EQ(resolve(Algorithm::kAuto, w, above, SortOutput::kYes),
            Algorithm::kHash);
}

TEST(RecipeResolve, DenseRowRuleCountsValueBytes) {
  // Twice as many float columns fit the same bytes.
  const auto [a, at] = narrow_pair<float>(2 * kDenseRowCols);
  EXPECT_EQ(resolve(Algorithm::kAuto, a, at, SortOutput::kYes),
            Algorithm::kSpa1p);
  const auto [w, above] = narrow_pair<float>(2 * kDenseRowCols + 1);
  EXPECT_EQ(resolve(Algorithm::kAuto, w, above, SortOutput::kYes),
            Algorithm::kHash);
}

TEST(RecipeResolve, DenseRowRuleLeavesOtherPicksAndCallersAlone) {
  const auto [a, b] = narrow_pair<double>(64);
  // An explicit kernel passes through.
  EXPECT_EQ(resolve(Algorithm::kHeap, a, b, SortOutput::kYes),
            Algorithm::kHeap);
  // Entry points that cannot run the one-phase SPA keep Hash.
  EXPECT_EQ(resolve(Algorithm::kAuto, a, b, SortOutput::kYes,
                    Operation::kSquare, is_two_phase),
            Algorithm::kHash);
  // Only a Hash pick is replaced: the low-CR triangular cell stays Heap.
  ASSERT_EQ(select_for(a, b, Operation::kTriangular, SortOutput::kYes),
            Algorithm::kHeap);
  EXPECT_EQ(resolve(Algorithm::kAuto, a, b, SortOutput::kYes,
                    Operation::kTriangular),
            Algorithm::kHeap);
}

}  // namespace
}  // namespace spgemm::recipe
