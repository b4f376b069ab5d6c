// Tiled structure-reuse driver properties (core/spgemm_twophase.hpp).
//
// The capture/replay pipeline folds numeric contributions in exactly the
// traversal order of the classic re-probing path, so reuse-on and reuse-off
// products must be BIT-identical — structure and values — in both sorted
// and unsorted modes, at any thread count, and across capture-budget
// fallbacks (dense rows spilling the budget).  With integer-valued doubles
// the products are exact, so the reference oracle must match bitwise too.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "accumulator/row_sort.hpp"
#include "common/random.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

/// RMAT input with all values forced to 1.0: every partial product and sum
/// is an integer far below 2^53, so floating-point addition is exact and
/// bitwise comparison against the reference is meaningful.
Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed,
                        bool g500 = true) {
  Matrix m = rmat_matrix<I, double>(
      g500 ? RmatParams::g500(scale, edge_factor, seed)
           : RmatParams::er(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

/// A matrix with empty rows, a dense row (hits every column), and normal
/// sparse rows — exercises capture, fallback and zero-count paths at once.
Matrix mixed_density_matrix(I n) {
  std::vector<std::tuple<I, I, double>> trips;
  for (I j = 0; j < n; ++j) trips.emplace_back(0, j, 1.0);  // dense row 0
  // Rows 2, 5, 8, ... sparse; rows 1, 4, 7, ... empty.
  for (I i = 2; i < n; i += 3) {
    trips.emplace_back(i, i % n, 1.0);
    trips.emplace_back(i, (i * 7 + 3) % n, 1.0);
    trips.emplace_back(i, (i * 13 + 1) % n, 1.0);
  }
  return csr_from_triplets<I, double>(n, n, trips);
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

struct ReuseParam {
  Algorithm algo;
  SortOutput sort;
  int threads;
};

std::string reuse_name(const ::testing::TestParamInfo<ReuseParam>& info) {
  const ReuseParam& p = info.param;
  std::string name = algorithm_name(p.algo);
  name += p.sort == SortOutput::kYes ? "_sorted" : "_unsorted";
  name += "_t" + std::to_string(p.threads);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class ReuseSweep : public ::testing::TestWithParam<ReuseParam> {};

TEST_P(ReuseSweep, ReuseOnOffAndReferenceBitIdentical) {
  const ReuseParam& p = GetParam();
  const Matrix a = unit_valued_rmat(7, 8, 31);

  SpGemmOptions opts;
  opts.algorithm = p.algo;
  opts.sort_output = p.sort;
  opts.threads = p.threads;

  opts.reuse = StructureReuse::kOn;
  SpGemmStats on_stats;
  const Matrix with_reuse = multiply(a, a, opts, &on_stats);

  opts.reuse = StructureReuse::kOff;
  SpGemmStats off_stats;
  const Matrix without_reuse = multiply(a, a, opts, &off_stats);

  expect_bitwise_equal(with_reuse, without_reuse, "reuse on vs off");
  EXPECT_NO_THROW(with_reuse.validate());

  // Batched vs per-key probing must be bit-identical too (the batch-capture
  // contract of accumulator/hash_table.hpp) across kernels, sortedness and
  // threads.  kOn overrides the table-size gate so the batch pipeline
  // really runs on these small inputs; kOff forbids it.
  opts.reuse = StructureReuse::kOn;
  opts.probe_batching = ProbeBatch::kOn;
  const Matrix batch_probed = multiply(a, a, opts);
  expect_bitwise_equal(with_reuse, batch_probed, "forced-batch probing");
  opts.probe_batching = ProbeBatch::kOff;
  const Matrix per_key_probed = multiply(a, a, opts);
  expect_bitwise_equal(with_reuse, per_key_probed,
                       "batched vs per-key probing");
  opts.probe_batching = ProbeBatch::kAuto;

  // Reuse observability: every row should be captured at the default
  // budget, and the replayed numeric phase must not probe.
  EXPECT_GT(on_stats.tile_count, 0u);
  EXPECT_EQ(on_stats.reuse_rows_captured, on_stats.reuse_rows_total);
  EXPECT_EQ(on_stats.numeric_probes, 0u);
  EXPECT_EQ(off_stats.reuse_rows_captured, 0u);
  EXPECT_EQ(on_stats.probes,
            on_stats.symbolic_probes + on_stats.numeric_probes);

  // Against the oracle: with unit values the product is exact, so sorted
  // output must match the reference bitwise.
  if (p.sort == SortOutput::kYes) {
    const Matrix expected = spgemm_reference(a, a);
    expect_bitwise_equal(with_reuse, expected, "reuse vs reference");
  } else {
    EXPECT_TRUE(approx_equal(with_reuse, spgemm_reference(a, a)));
  }
}

std::vector<ReuseParam> build_reuse_sweep() {
  std::vector<ReuseParam> out;
  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
        Algorithm::kKkHash}) {
    for (const SortOutput sort : {SortOutput::kYes, SortOutput::kNo}) {
      for (const int threads : {1, 4}) {
        out.push_back({algo, sort, threads});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(DriverKernels, ReuseSweep,
                         ::testing::ValuesIn(build_reuse_sweep()),
                         reuse_name);

// ---------------------------------------------------------------------------
// Sorted emission over a 2^20-column space: one product whose rows take
// every sort_row() path (accumulator/row_sort.hpp) stays bit-identical to
// the reference whichever driver, capture mode and thread count emits it.
// ---------------------------------------------------------------------------

/// A (240 x 96) and B (96 x 2^20), unit-valued.  B rows 0-63 form 16 groups
/// of 4 whose columns share one 2048-column window; rows 64-79 scatter 40
/// columns over the whole space; rows 80-95 scatter 12.  A's rows combine
/// three rows of one group (clustered: bitmap-rank sort), three scattered
/// rows (comparison sort) or two short rows (insertion sort).
std::pair<Matrix, Matrix> wide_column_operands() {
  constexpr I kCols = I{1} << 20;
  constexpr I kInner = 96;
  SplitMix64 rng(2020);
  std::vector<std::tuple<I, I, double>> bt;
  for (I r = 0; r < kInner; ++r) {
    const std::size_t len = r < 80 ? 40 : 12;
    std::set<I> cols;
    while (cols.size() < len) {
      const I window = (r / 4) * 65536;
      cols.insert(r < 64 ? window + static_cast<I>(rng.next_below(2048))
                         : static_cast<I>(rng.next_below(kCols)));
    }
    for (const I c : cols) bt.emplace_back(r, c, 1.0);
  }
  std::vector<std::tuple<I, I, double>> at;
  for (I i = 0; i < 240; ++i) {
    for (I k = 0; k < 3; ++k) {
      switch (i % 3) {
        case 0:
          at.emplace_back(i, i / 3 % 16 * 4 + k, 1.0);
          break;
        case 1:
          at.emplace_back(i, 64 + (i + 5 * k) % 16, 1.0);
          break;
        default:
          if (k < 2) at.emplace_back(i, 80 + (i + 7 * k) % 16, 1.0);
      }
    }
  }
  return {csr_from_triplets<I, double>(240, kInner, at),
          csr_from_triplets<I, double>(kInner, kCols, bt)};
}

TEST(ReuseSortPaths, WideColumnSpaceBitIdenticalAcrossThreads) {
  const auto [a, b] = wide_column_operands();
  const Matrix expected = spgemm_reference(a, b);

  int insertion_rows = 0;
  int bitmap_rows = 0;
  int comparison_rows = 0;
  for (I i = 0; i < expected.nrows; ++i) {
    const auto n = static_cast<std::size_t>(expected.row_nnz(i));
    const auto begin = static_cast<std::size_t>(expected.row_begin(i));
    if (n <= kRowSortInsertionMax) {
      ++insertion_rows;
    } else if (row_sort_uses_bitmap(expected.cols[begin],
                                    expected.cols[begin + n - 1], n)) {
      ++bitmap_rows;
    } else {
      ++comparison_rows;
    }
  }
  EXPECT_EQ(insertion_rows, 80);
  EXPECT_EQ(bitmap_rows, 80);
  EXPECT_EQ(comparison_rows, 80);

  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
        Algorithm::kKkHash}) {
    for (const int threads : {1, 2, 4}) {
      const std::string label =
          algorithm_name(algo) + std::string(" t") + std::to_string(threads);
      SpGemmOptions opts;
      opts.algorithm = algo;
      opts.sort_output = SortOutput::kYes;
      opts.threads = threads;
      for (const StructureReuse reuse :
           {StructureReuse::kOn, StructureReuse::kOff}) {
        opts.reuse = reuse;
        const std::string mode =
            label + (reuse == StructureReuse::kOn ? " capture" : " re-probe");
        expect_bitwise_equal(multiply(a, b, opts), expected,
                             mode + " one-shot");
        SpGemmHandle<I, double> handle(a, b, opts);
        Matrix planned;
        handle.execute_into(a, b, planned);
        expect_bitwise_equal(planned, expected, mode + " handle");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Budget fallback: dense rows exceeding the capture budget re-probe, and
// the result is still bit-identical to reuse-off and the reference.
// ---------------------------------------------------------------------------

TEST(ReuseBudget, DenseRowsFallBackAndStayExact) {
  const Matrix a = mixed_density_matrix(256);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 2;
  // Row 0 is fully dense: its A*A flop is 256 * nnz-per-B-row; a budget of
  // 1 KiB (256 int32 slots) cannot capture it, while many sparse rows fit.
  opts.reuse = StructureReuse::kOn;
  opts.reuse_budget_bytes = 1024;
  SpGemmStats stats;
  const Matrix tiny_budget = multiply(a, a, opts, &stats);
  EXPECT_GT(stats.reuse_rows_captured, 0u);
  EXPECT_LT(stats.reuse_rows_captured, stats.reuse_rows_total);
  EXPECT_GT(stats.numeric_probes, 0u);  // fallback rows re-probe
  EXPECT_GT(stats.reuse_hit_rate(), 0.0);
  EXPECT_LT(stats.reuse_hit_rate(), 1.0);

  opts.reuse = StructureReuse::kOff;
  const Matrix no_reuse = multiply(a, a, opts);
  expect_bitwise_equal(tiny_budget, no_reuse, "tiny budget vs reuse off");

  const Matrix expected = spgemm_reference(a, a);
  expect_bitwise_equal(tiny_budget, expected, "tiny budget vs reference");
}

TEST(ReuseBudget, ZeroRowBudgetCapturesNothing) {
  // Identity rows carry exactly one flop each; a one-slot budget (a row
  // needs flop + nnz = 2 slots) forces every row onto the fallback path.
  const auto a = csr_identity<I, double>(32);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.reuse_budget_bytes = 4;  // one int32 slot: no row fits
  SpGemmStats stats;
  const Matrix c = multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.reuse_rows_captured, 0u);
  expect_bitwise_equal(c, spgemm_reference(a, a), "no capture vs reference");
}

// ---------------------------------------------------------------------------
// Edge cases: empty matrix, empty rows, the smallest tiles (a 64 B budget
// clamps them to 16 rows) and tiles larger than the matrix.
// ---------------------------------------------------------------------------

TEST(ReuseEdgeCases, EmptyAndTinyMatrices) {
  for (const std::size_t budget : {std::size_t{64}, std::size_t{0}}) {
    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.reuse_budget_bytes = budget;
    opts.reuse = StructureReuse::kOn;

    const Matrix empty(4, 4);
    const Matrix ce = multiply(empty, empty, opts);
    EXPECT_EQ(ce.nnz(), 0);

    const Matrix a = mixed_density_matrix(64);  // has empty rows
    SpGemmStats stats;
    const Matrix c = multiply(a, a, opts, &stats);
    expect_bitwise_equal(c, spgemm_reference(a, a), "mixed density");
    EXPECT_EQ(stats.nnz_out, c.nnz());
  }
}

TEST(ReuseEdgeCases, ThreadCountInvariance) {
  const Matrix a = unit_valued_rmat(8, 8, 23);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.threads = 1;
  const Matrix baseline = multiply(a, a, opts);
  for (const int threads : {2, 3, 8}) {
    opts.threads = threads;
    const Matrix c = multiply(a, a, opts);
    expect_bitwise_equal(c, baseline, "threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Stats contracts of the tiled driver.
// ---------------------------------------------------------------------------

TEST(ReuseStats, SymbolicProbesReported) {
  const Matrix a = unit_valued_rmat(8, 8, 11);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOff;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  // Both phases probe when reuse is off, and the collision factor derived
  // from one phase alone would understate the total by roughly half.
  EXPECT_GT(stats.symbolic_probes, 0u);
  EXPECT_GT(stats.numeric_probes, 0u);
  EXPECT_EQ(stats.probes, stats.symbolic_probes + stats.numeric_probes);
  const auto flop = static_cast<double>(stats.flop);
  EXPECT_GE(static_cast<double>(stats.probes) / flop, 1.9)
      << "two probing phases must cost at least ~2 probes per flop";
}

TEST(ReuseStats, TileCountMatchesTileSize) {
  // One flop per row, so the flop cut falls on the row cap: a 64 B budget
  // clamps tiles to 16 rows, 8 tiles over 128 rows.
  const auto a = csr_identity<I, double>(128);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 1;
  opts.reuse_budget_bytes = 64;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.tile_count, 8u);
  EXPECT_EQ(stats.reuse_rows_total, 128u);
}

// ---------------------------------------------------------------------------
// Planner integration: measured collision factor and tile choice.
// ---------------------------------------------------------------------------

TEST(ReusePlanner, PlanMeasuresCollisionFactorAndTiles) {
  const Matrix a = unit_valued_rmat(8, 8, 29);
  SpGemmStats stats;
  SpGemmHandle<I, double> plan(a, a, {}, &stats);
  EXPECT_GT(plan.symbolic_probes(), 0u);
  EXPECT_EQ(stats.symbolic_probes, plan.symbolic_probes());
  EXPECT_GE(plan.collision_factor(), 1.0);  // >= one probe per insert
  EXPECT_GT(stats.tile_count, 0u);
  EXPECT_GT(stats.reuse_rows_captured, 0u);  // capture is on by default
  EXPECT_EQ(stats.nnz_out, plan.nnz_out());
  EXPECT_GT(stats.plan_ms, 0.0);
}

TEST(ReusePlanner, CollisionFactorFlooredUnderBatchedProbing) {
  // Every row shares the same few columns, so most keys in a 16-lane batch
  // window duplicate an earlier lane and retire WITHOUT a probe round.
  // The cost model's c is defined against per-key probing (>= one round
  // per key); collision_factor() must floor the batched round count so c
  // is not skewed on exactly these duplicate-heavy inputs.
  std::vector<std::tuple<I, I, double>> trips;
  for (I i = 0; i < 512; ++i) {
    for (I j = 0; j < 8; ++j) trips.emplace_back(i, j, 1.0);
  }
  const Matrix a = csr_from_triplets<I, double>(512, 512, trips);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHashVector;
  opts.probe_batching = ProbeBatch::kOn;
  SpGemmHandle<I, double> plan(a, a, opts);
  EXPECT_GE(plan.collision_factor(), 1.0);
}

TEST(ReusePlanner, CostModelTileChoiceScalesWithDensity) {
  // Denser products get smaller tiles (capture footprint per row grows).
  const std::size_t budget = model::kDefaultReuseBudgetBytes;
  const std::size_t sparse_tiles =
      model::choose_tile_rows(/*flop=*/1 << 12, /*nrows=*/1 << 10, budget, 4);
  const std::size_t dense_tiles =
      model::choose_tile_rows(/*flop=*/1 << 24, /*nrows=*/1 << 10, budget, 4);
  EXPECT_GE(sparse_tiles, dense_tiles);
  EXPECT_GE(dense_tiles, 16u);
}

}  // namespace
}  // namespace spgemm
