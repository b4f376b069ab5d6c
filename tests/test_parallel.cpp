// Tests for the scheduling substrate: prefix sums, lowbnd, RowsToThreads.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "matrix/rmat.hpp"
#include "parallel/lowbnd.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/rows_to_threads.hpp"
#include "parallel/schedule.hpp"

namespace spgemm::parallel {
namespace {

TEST(PrefixSum, EmptyArray) {
  std::vector<long> v;
  EXPECT_EQ(exclusive_scan_inplace(v.data(), 0), 0);
}

TEST(PrefixSum, SingleElement) {
  std::vector<long> v{5};
  EXPECT_EQ(exclusive_scan_inplace(v.data(), 1), 5);
  EXPECT_EQ(v[0], 0);
}

TEST(PrefixSum, MatchesSerialScan) {
  std::vector<long> v(1000);
  std::iota(v.begin(), v.end(), 1L);
  std::vector<long> expected(v.size());
  long run = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    expected[i] = run;
    run += v[i];
  }
  const long total = exclusive_scan_inplace(v.data(), v.size());
  EXPECT_EQ(total, run);
  EXPECT_EQ(v, expected);
}

TEST(PrefixSum, WorksUnderManyThreads) {
  ScopedNumThreads scope(8);
  std::vector<Offset> v(100001, 3);
  const Offset total = exclusive_scan_inplace(v.data(), v.size());
  EXPECT_EQ(total, 3 * static_cast<Offset>(v.size()));
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[100000], 3 * 100000);
}

TEST(PrefixSum, TwoArrayForm) {
  const std::vector<int> counts{2, 0, 5, 1};
  std::vector<Offset> out(5);
  const Offset total = exclusive_scan(counts.data(), counts.size(),
                                      out.data());
  EXPECT_EQ(total, 8);
  EXPECT_EQ(out, (std::vector<Offset>{0, 2, 2, 7, 8}));
}

TEST(Lowbnd, MatchesStdLowerBound) {
  const std::vector<Offset> v{0, 1, 1, 4, 9, 9, 12};
  for (Offset target = -1; target <= 14; ++target) {
    const auto expected = static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), target) - v.begin());
    EXPECT_EQ(lowbnd(v.data(), v.size(), target), expected) << target;
  }
}

TEST(Lowbnd, EmptyArray) {
  const Offset* none = nullptr;
  EXPECT_EQ(lowbnd(none, 0, Offset{5}), 0u);
}

class RowsToThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(RowsToThreadsTest, PartitionInvariants) {
  const int nthreads = GetParam();
  const auto a = rmat_matrix<std::int32_t, double>(
      RmatParams::g500(10, 8, /*seed=*/3));
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const RowPartition part = rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), a.rpts.data(), nthreads);

  // Offsets: monotone cover of [0, nrows].
  ASSERT_EQ(part.offsets.size(), static_cast<std::size_t>(nthreads) + 1);
  EXPECT_EQ(part.offsets.front(), 0u);
  EXPECT_EQ(part.offsets.back(), nrows);
  for (int t = 0; t < nthreads; ++t) {
    EXPECT_LE(part.offsets[static_cast<std::size_t>(t)],
              part.offsets[static_cast<std::size_t>(t) + 1]);
  }

  // flop prefix is monotone and consistent with a serial recount.
  Offset serial = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    EXPECT_EQ(part.flop_prefix[i], serial);
    for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
      const auto k = static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)]);
      serial += a.rpts[k + 1] - a.rpts[k];
    }
  }
  EXPECT_EQ(part.total_flop(), serial);
}

TEST_P(RowsToThreadsTest, BalanceWithinOneMaxRow) {
  const int nthreads = GetParam();
  const auto a = rmat_matrix<std::int32_t, double>(
      RmatParams::er(10, 8, /*seed=*/5));
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const RowPartition part = rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), a.rpts.data(), nthreads);

  // Every thread's flop share is within (average + max single row): the
  // guarantee binary-searched prefix splitting provides.
  const double ave = static_cast<double>(part.total_flop()) / nthreads;
  Offset max_row = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    max_row = std::max(max_row, part.flop_prefix[i + 1] -
                                    part.flop_prefix[i]);
  }
  for (int t = 0; t < nthreads; ++t) {
    const Offset mine =
        part.flop_prefix[part.offsets[static_cast<std::size_t>(t) + 1]] -
        part.flop_prefix[part.offsets[static_cast<std::size_t>(t)]];
    EXPECT_LE(static_cast<double>(mine),
              ave + static_cast<double>(max_row) + 1.0)
        << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, RowsToThreadsTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 61));

TEST(RowsToThreads, MaxRowFlopPerBlock) {
  const auto a = rmat_matrix<std::int32_t, double>(RmatParams::g500(8, 8, 1));
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const RowPartition part = rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), a.rpts.data(), 4);
  for (int t = 0; t < 4; ++t) {
    Offset expected = 0;
    for (std::size_t i = part.offsets[static_cast<std::size_t>(t)];
         i < part.offsets[static_cast<std::size_t>(t) + 1]; ++i) {
      expected = std::max(expected,
                          part.flop_prefix[i + 1] - part.flop_prefix[i]);
    }
    EXPECT_EQ(part.max_row_flop(t), expected);
  }
}

TEST(RowsEqual, EqualRowCounts) {
  const auto a = rmat_matrix<std::int32_t, double>(RmatParams::er(8, 4, 2));
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const RowPartition part = rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                       a.rpts.data(), 4);
  EXPECT_EQ(part.offsets.front(), 0u);
  EXPECT_EQ(part.offsets.back(), nrows);
  const std::size_t chunk = (nrows + 3) / 4;
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(part.offsets[static_cast<std::size_t>(t) + 1] -
                  part.offsets[static_cast<std::size_t>(t)],
              chunk);
  }
}

TEST(SchedulePolicy, NamesAndClassification) {
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kStatic), "static");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kBalancedParallel),
               "balanced parallel");
  EXPECT_TRUE(is_balanced(SchedulePolicy::kBalanced));
  EXPECT_TRUE(is_balanced(SchedulePolicy::kBalancedParallel));
  EXPECT_FALSE(is_balanced(SchedulePolicy::kStatic));
  EXPECT_FALSE(is_balanced(SchedulePolicy::kDynamic));
  EXPECT_FALSE(is_balanced(SchedulePolicy::kGuided));
}

TEST(ScopedNumThreads, RestoresPrevious) {
  const int before = omp_get_max_threads();
  {
    ScopedNumThreads scope(3);
    EXPECT_EQ(omp_get_max_threads(), 3);
  }
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(ResolveThreads, ZeroMeansDefault) {
  EXPECT_EQ(resolve_threads(0), omp_get_max_threads());
  EXPECT_EQ(resolve_threads(5), 5);
}

}  // namespace
}  // namespace spgemm::parallel
