// Tests for the multiply() dispatcher: option plumbing, kAuto resolution,
// stats reporting, error paths.
#include <gtest/gtest.h>

#include "core/multiply.hpp"
#include "core/recipe.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

TEST(MultiplyDispatch, AutoResolvesAndComputes) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(7, 8, 3));
  SpGemmOptions opts;  // kAuto default
  const Matrix c = multiply(a, a, opts);
  EXPECT_TRUE(approx_equal(c, spgemm_reference(a, a)));
}

TEST(MultiplyDispatch, StatsAreFilled) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(8, 8, 5));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  SpGemmStats stats;
  const Matrix c = multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.nnz_out, c.nnz());
  EXPECT_GT(stats.flop, 0);
  EXPECT_GT(stats.numeric_ms, 0.0);
  EXPECT_GT(stats.symbolic_ms, 0.0);  // two-phase kernel
  EXPECT_GT(stats.mflops(), 0.0);
  EXPECT_GT(stats.total_ms(), 0.0);
  EXPECT_GT(stats.probes, 0u);  // hash kernels count probes
}

TEST(MultiplyDispatch, OnePhaseKernelsReportZeroSymbolic) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(7, 4, 7));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHeap;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.symbolic_ms, 0.0);
}

TEST(MultiplyDispatch, ReferenceAlgorithmWorksThroughDispatch) {
  const Matrix a = rmat_matrix<I, double>(RmatParams::er(5, 4, 9));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kReference;
  SpGemmStats stats;
  const Matrix c = multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.nnz_out, c.nnz());
  EXPECT_TRUE(c.rows_are_ascending());
}

TEST(MultiplyDispatch, MflopsConventionIsTwoFlopPerProduct) {
  SpGemmStats stats;
  stats.flop = 500;
  stats.numeric_ms = 1.0;
  EXPECT_NEAR(stats.mflops(), 2.0 * 500.0 / 1e3, 1e-9);
}

TEST(MultiplyDispatch, SupportsUnsortedClassification) {
  EXPECT_TRUE(supports_unsorted(Algorithm::kHash));
  EXPECT_TRUE(supports_unsorted(Algorithm::kHashVector));
  EXPECT_TRUE(supports_unsorted(Algorithm::kSpa));
  EXPECT_TRUE(supports_unsorted(Algorithm::kSpa1p));
  EXPECT_TRUE(supports_unsorted(Algorithm::kKkHash));
  EXPECT_FALSE(supports_unsorted(Algorithm::kHeap));
  EXPECT_FALSE(supports_unsorted(Algorithm::kMerge));
}

TEST(MultiplyDispatch, RequiresSortedInputClassification) {
  EXPECT_TRUE(requires_sorted_input(Algorithm::kHeap));
  EXPECT_TRUE(requires_sorted_input(Algorithm::kMerge));
  EXPECT_TRUE(requires_sorted_input(Algorithm::kIkj));
  EXPECT_FALSE(requires_sorted_input(Algorithm::kHash));
  EXPECT_FALSE(requires_sorted_input(Algorithm::kSpa));
}

TEST(MultiplyDispatch, AlgorithmNamesAreDistinct) {
  std::set<std::string> names;
  for (const Algorithm algo :
       {Algorithm::kAuto, Algorithm::kHeap, Algorithm::kHash,
        Algorithm::kHashVector, Algorithm::kSpa, Algorithm::kSpa1p,
        Algorithm::kKkHash, Algorithm::kMerge, Algorithm::kIkj,
        Algorithm::kReference}) {
    EXPECT_TRUE(names.insert(algorithm_name(algo)).second);
  }
}

TEST(MultiplyDispatch, RectangularChainMatchesReference) {
  // (2^6 x 2^6) times tall-skinny extraction: the §5.5 shape through the
  // dispatcher.
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(6, 8, 11));
  const auto cols = sample_columns<I>(a.ncols, 16, 3);
  const Matrix f = extract_columns(a, cols);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  const Matrix c = multiply(a, f, opts);
  EXPECT_EQ(c.ncols, 16);
  EXPECT_TRUE(approx_equal(c, spgemm_reference(a, f)));
}

TEST(MultiplyDispatch, NarrowAutoRunsSpa1pThroughMultiplyAndFusedEpilogue) {
  // 256 columns: a dense output row fits kDenseRowMaxBytes, so kAuto takes
  // SPA-1p where Table 4 says Hash, in multiply() and in
  // multiply_with_epilogue(), whose one-phase driver runs the epilogue and
  // writes the explicit-kHash call's bytes.  The entry points that need a
  // symbolic phase or a semiring fold keep Hash: their statistics match an
  // explicit kHash call's, probe for probe.
  RmatParams params = RmatParams::g500(8, 8, 41);
  params.symmetric = true;
  const Matrix a = rmat_matrix<I, double>(params);
  ASSERT_EQ(recipe::resolve(Algorithm::kAuto, a, a, SortOutput::kYes),
            Algorithm::kSpa1p);
  SpGemmOptions auto_opts;
  auto_opts.threads = 2;
  SpGemmOptions hash_opts = auto_opts;
  hash_opts.algorithm = Algorithm::kHash;
  const auto expect_hash_stats = [](const SpGemmStats& got,
                                    const SpGemmStats& want,
                                    const char* label) {
    EXPECT_GT(want.probes, 0u) << label;
    EXPECT_EQ(got.probes, want.probes) << label;
    EXPECT_EQ(got.symbolic_keys, want.symbolic_keys) << label;
    EXPECT_EQ(got.tile_count, want.tile_count) << label;
  };

  SpGemmStats one_shot;
  multiply(a, a, auto_opts, &one_shot);
  EXPECT_EQ(one_shot.symbolic_ms, 0.0);  // the one-phase SPA ran
  EXPECT_EQ(one_shot.tile_count, 0u);

  SpGemmHandle<I, double> handle;
  handle.plan(a, a, auto_opts);
  EXPECT_EQ(handle.algorithm(), Algorithm::kHash);

  SpGemmStats got;
  SpGemmStats want;
  multiply_over<PlusTimes>(a, a, auto_opts, &got);
  multiply_over<PlusTimes>(a, a, hash_opts, &want);
  expect_hash_stats(got, want, "multiply_over");

  SpGemmOptions prune = auto_opts;
  prune.epilogue.kind = EpilogueKind::kPruneScale;
  prune.epilogue.prune_below = 0.25;
  SpGemmOptions prune_hash = prune;
  prune_hash.algorithm = Algorithm::kHash;
  got = want = SpGemmStats{};
  const Matrix fused = multiply_with_epilogue(a, a, prune, &got);
  const Matrix fused_hash = multiply_with_epilogue(a, a, prune_hash, &want);
  EXPECT_EQ(got.symbolic_ms, 0.0);  // the one-phase SPA ran
  EXPECT_EQ(got.tile_count, 0u);
  EXPECT_GT(want.tile_count, 0u);
  EXPECT_EQ(got.nnz_out, want.nnz_out);
  EXPECT_EQ(got.epilogue_rows, want.epilogue_rows);
  EXPECT_EQ(fused.rpts, fused_hash.rpts);
  EXPECT_EQ(fused.cols, fused_hash.cols);
  EXPECT_EQ(fused.vals, fused_hash.vals);
}

}  // namespace
}  // namespace spgemm
