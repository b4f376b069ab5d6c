// ExecutionSchedule contracts (parallel/execution_schedule.hpp) and the
// tile size behind it (model::choose_tile_rows).
//
// The schedule-level tests drive for_each_tile() one simulated thread at a
// time: every row is covered exactly once, each thread walks its own range
// in row order, and each thread's accumulator is sized to its own widest
// row.  The SpGEMM-level tests then check that the tile cuts never change
// the product: runs at every thread count are bit-identical to the serial
// oracle under adversarial row skew.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using parallel::ExecutionSchedule;
using parallel::RowPartition;
using parallel::TileRange;

/// Partition `flops` (one entry per row) across `nthreads`, flop-balanced.
RowPartition partition_of(const std::vector<Offset>& flops, int nthreads) {
  // Build a tiny CSR pair whose product has exactly these per-row flops:
  // row i of A holds flops[i] entries pointing at singleton rows of B.
  // Simpler: assemble the partition directly from a prefix sum.
  RowPartition part;
  part.flop_prefix.resize(flops.size() + 1);
  part.flop_prefix[0] = 0;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    part.flop_prefix[i + 1] = part.flop_prefix[i] + flops[i];
  }
  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  const double ave = static_cast<double>(part.flop_prefix.back()) /
                     static_cast<double>(nthreads);
  for (int t = 1; t < nthreads; ++t) {
    const auto target = static_cast<Offset>(ave * t);
    std::size_t lo = 0;
    while (lo < flops.size() && part.flop_prefix[lo] < target) ++lo;
    part.offsets[static_cast<std::size_t>(t)] = lo;
  }
  part.offsets[static_cast<std::size_t>(nthreads)] = flops.size();
  return part;
}

/// Sequentially drain every simulated thread in `order`; returns how many
/// times each row was visited.
std::vector<int> drain(const ExecutionSchedule& schedule,
                       const std::vector<int>& order, std::size_t nrows) {
  std::vector<int> visits(nrows, 0);
  for (const int tid : order) {
    schedule.for_each_tile(tid, [&](const TileRange& tile) {
      for (std::size_t r = tile.row_begin; r < tile.row_end; ++r) {
        ++visits[r];
      }
    });
  }
  return visits;
}

TEST(ExecutionSchedule, TilesCoverEveryRowExactlyOnce) {
  const std::vector<Offset> flops = {0, 7, 1, 0,  900, 3, 3,  0,
                                     5, 0, 2, 40, 1,   0, 60, 9};
  for (const int nthreads : {1, 2, 3, 5}) {
    const RowPartition part = partition_of(flops, nthreads);
    ExecutionSchedule schedule;
    schedule.build(part, /*row_cap=*/2, /*target_flop=*/10);
    std::vector<int> order;
    for (int t = 0; t < nthreads; ++t) order.push_back(t);
    const std::vector<int> visits = drain(schedule, order, flops.size());
    for (std::size_t r = 0; r < flops.size(); ++r) {
      EXPECT_EQ(visits[r], 1) << "row " << r << " threads " << nthreads;
    }
    // Each thread runs its own range, tile after tile in row order: the
    // rows it stages form one contiguous block.
    for (int t = 0; t < nthreads; ++t) {
      std::size_t next = part.offsets[static_cast<std::size_t>(t)];
      schedule.for_each_tile(t, [&](const TileRange& tile) {
        EXPECT_EQ(tile.row_begin, next) << "thread " << t;
        next = tile.row_end;
      });
      EXPECT_EQ(next, part.offsets[static_cast<std::size_t>(t) + 1])
          << "thread " << t;
    }
  }
}

TEST(ExecutionSchedule, SizingCoversEachOwnersWidestRow) {
  std::vector<Offset> flops(16, 1);
  flops[3] = 500;  // the global worst row sits in thread 0's range
  const RowPartition part = partition_of(flops, 4);
  ExecutionSchedule schedule;
  schedule.build(part, 4, 0);
  EXPECT_EQ(schedule.sizing_max_row_flop(0), 500);
  for (int t = 0; t < 4; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    EXPECT_EQ(schedule.sizing_max_row_flop(t), part.max_row_flop(t))
        << "thread " << t << " runs only its own rows";
    EXPECT_EQ(schedule.capture_flop_bound(t),
              part.flop_prefix[part.offsets[ut + 1]] -
                  part.flop_prefix[part.offsets[ut]])
        << "thread " << t;
  }
  for (int t = 1; t < 4; ++t) {
    EXPECT_LT(schedule.sizing_max_row_flop(t), 500) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Tile size from the capture budget.
// ---------------------------------------------------------------------------

TEST(ExecutionSchedule, ChooseTileRowsNeverZeroOnTinyBudget) {
  for (const std::size_t budget : {std::size_t{1}, std::size_t{4},
                                   std::size_t{100}}) {
    const std::size_t rows = model::choose_tile_rows(
        /*total_flop=*/Offset{1} << 26, /*nrows=*/256, budget, sizeof(I));
    EXPECT_GE(rows, 1u) << "budget " << budget;
  }
}

// ---------------------------------------------------------------------------
// Adversarial row skew: bit-identical products at every thread count.
// ---------------------------------------------------------------------------

/// One fully dense row in a sea of empties — the worst static imbalance.
Matrix dense_row_among_empties(I n) {
  std::vector<std::tuple<I, I, double>> trips;
  for (I j = 0; j < n; ++j) trips.emplace_back(0, j, 1.0);
  // A sprinkle of singleton rows so B has structure for row 0 to hit.
  for (I i = 1; i < n; i += 2) trips.emplace_back(i, (i * 31 + 7) % n, 1.0);
  return csr_from_triplets<I, double>(n, n, trips);
}

Matrix powerlaw_rmat(int scale) {
  Matrix m =
      rmat_matrix<I, double>(RmatParams::g500(scale, 8, 77));  // a=0.57 skew
  for (auto& v : m.vals) v = 1.0;
  return m;
}

TEST(ScheduleSkew, BitIdenticalToSerialOracle) {
  const std::vector<std::pair<std::string, Matrix>> inputs = [] {
    std::vector<std::pair<std::string, Matrix>> v;
    v.emplace_back("dense_row", dense_row_among_empties(256));
    v.emplace_back("powerlaw", powerlaw_rmat(8));
    return v;
  }();
  for (const auto& [name, a] : inputs) {
    const Matrix oracle = spgemm_reference(a, a);
    for (const Algorithm algo : {Algorithm::kHash, Algorithm::kAdaptive}) {
      for (const int threads : {1, 2, 4, 8}) {
        SpGemmOptions opts;
        opts.algorithm = algo;
        opts.threads = threads;
        const Matrix c = multiply(a, a, opts);
        const std::string label = name + " " + algorithm_name(algo) + " t" +
                                  std::to_string(threads);
        ASSERT_EQ(c.rpts, oracle.rpts) << label;
        ASSERT_EQ(c.cols, oracle.cols) << label;
        for (std::size_t i = 0; i < c.vals.size(); ++i) {
          ASSERT_EQ(c.vals[i], oracle.vals[i]) << label << " vals[" << i
                                               << "]";
        }
      }
    }
  }
}

TEST(ScheduleSkew, HandlePlansAndReplays) {
  // Repeated executes of a 4-thread plan replay bit-identically.
  const Matrix a = powerlaw_rmat(8);
  SpGemmOptions baseline_opts;
  baseline_opts.algorithm = Algorithm::kHash;
  const Matrix expected = multiply(a, a, baseline_opts);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 4;
  SpGemmHandle<I, double> handle(a, a, opts);
  for (int round = 0; round < 3; ++round) {
    const Matrix& c = handle.execute(a, a);
    ASSERT_EQ(c.rpts, expected.rpts);
    ASSERT_EQ(c.cols, expected.cols);
    for (std::size_t i = 0; i < c.vals.size(); ++i) {
      ASSERT_EQ(c.vals[i], expected.vals[i]);
    }
  }
}

}  // namespace
}  // namespace spgemm
