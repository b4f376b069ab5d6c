// The row pipeline (core/spgemm_twophase.hpp KernelPlan) behind every
// two-phase entry point: the one-shot multiply, SpGemmHandle's plan and
// execute, multiply_with_epilogue and multiply_rap; and the one-phase
// driver (core/spgemm_onephase.hpp) behind Heap, Merge, SPA-1p, IKJ and
// multiply_masked.
//
// Four contracts:
//   * Short teams.  Every per-owner region must compute every row when
//     OpenMP delivers fewer threads than requested — here a call from
//     inside a caller's parallel region with nesting off, where every
//     inner region gets a team of one while the options ask for four.
//   * One-shot == planned execute, bitwise, across the configuration
//     lattice the other suites leave out: fused epilogues, capture-overflow
//     rows, unsorted output and thread counts.
//   * multiply_rap runs on the tile schedule: bit-identical to the
//     two-step product at every thread count, with its tiles reported.
//   * Every one-phase kernel gives the same bytes under all five
//     opts.schedule variants, any thread count and a short team, and on
//     unit values its sorted rows are spgemm_reference's.
//   * A fused epilogue run by the one-phase driver (SPA-1p under
//     multiply_with_epilogue) gives the explicit-Hash fused one-shot's
//     bytes under every schedule variant, thread count and a short team.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "core/multiply.hpp"
#include "core/recipe.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_masked.hpp"
#include "core/spgemm_rap.hpp"
#include "core/spgemm_ref.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

constexpr int kRequestedThreads = 4;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kAuto,       Algorithm::kHeap,  Algorithm::kHash,
    Algorithm::kHashVector, Algorithm::kSpa,   Algorithm::kSpa1p,
    Algorithm::kKkHash,     Algorithm::kMerge, Algorithm::kIkj,
    Algorithm::kAdaptive,   Algorithm::kReference};

Matrix rmat(int scale, int edge_factor, std::uint64_t seed) {
  return rmat_matrix<I, double>(RmatParams::g500(scale, edge_factor, seed));
}

/// Unit values keep every product entry an exact integer, so the oracle's
/// fold order never matters and epilogue thresholds cannot flip on a
/// rounding difference.
Matrix unit_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m = rmat(scale, edge_factor, seed);
  for (auto& v : m.vals) v = 1.0;
  return m;
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.ncols, y.ncols) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

/// Runs `fn` on one thread of a two-thread parallel region with nesting
/// disabled: every parallel region `fn` opens gets a team of one, whatever
/// its options request.  Exceptions are carried out of the region.
template <typename Fn>
auto in_short_team(Fn&& fn) {
  using Result = decltype(fn());
  const int levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);
  std::optional<Result> out;
  std::exception_ptr error;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      try {
        out.emplace(fn());
      } catch (...) {
        error = std::current_exception();
      }
    }
  }
  omp_set_max_active_levels(levels);
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

bool planable(Algorithm algo) {
  return algo == Algorithm::kAuto || is_two_phase(algo);
}

SpGemmOptions short_team_opts(Algorithm algo) {
  SpGemmOptions opts;
  opts.algorithm = algo;
  opts.threads = kRequestedThreads;
  return opts;
}

EpilogueSpec prune_spec() {
  EpilogueSpec spec;
  spec.kind = EpilogueKind::kPruneScale;
  spec.inflation = 2.0;
  spec.prune_below = 4.0;  // unit inputs: keeps the entries >= 2
  return spec;
}

/// The reference product pruned and scaled entry by entry.
Matrix prune_scale_ref(const Matrix& c, const EpilogueSpec& spec) {
  Matrix out(c.nrows, c.ncols);
  for (I i = 0; i < c.nrows; ++i) {
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      const double v =
          std::pow(c.vals[static_cast<std::size_t>(j)], spec.inflation);
      if (v >= spec.prune_below) {
        out.cols.push_back(c.cols[static_cast<std::size_t>(j)]);
        out.vals.push_back(v);
      }
    }
    out.rpts[static_cast<std::size_t>(i) + 1] =
        static_cast<Offset>(out.cols.size());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Short teams: a call from inside a caller's parallel region.
// ---------------------------------------------------------------------------

class RowPipelineShortTeam : public ::testing::Test {
 protected:
  const Matrix a = unit_rmat(8, 8, 71);
  const Matrix expected = spgemm_reference(a, a);
};

TEST_F(RowPipelineShortTeam, MultiplyEveryAlgorithm) {
  for (const Algorithm algo : kAllAlgorithms) {
    const SpGemmOptions opts = short_team_opts(algo);
    const Matrix c = in_short_team([&] { return multiply(a, a, opts); });
    EXPECT_TRUE(approx_equal(c, expected)) << algorithm_name(algo);
  }
}

TEST_F(RowPipelineShortTeam, DefaultOptionsInsideParallelRegion) {
  // threads = 0 resolves to omp_get_max_threads(), which inside the outer
  // region reports the calling task's setting, not the team of one that
  // nesting grants; pin it so the result does not depend on the host.
  for (const Algorithm algo : kAllAlgorithms) {
    SpGemmOptions opts;
    opts.algorithm = algo;
    const Matrix c = in_short_team([&] {
      omp_set_num_threads(kRequestedThreads);
      return multiply(a, a, opts);
    });
    EXPECT_TRUE(approx_equal(c, expected)) << algorithm_name(algo);
  }
}

TEST_F(RowPipelineShortTeam, HandleUnfusedAndFused) {
  const EpilogueSpec spec = prune_spec();
  const Matrix pruned = prune_scale_ref(expected, spec);
  for (const Algorithm algo : kAllAlgorithms) {
    if (!planable(algo)) continue;
    const SpGemmOptions plain = short_team_opts(algo);
    const Matrix c = in_short_team([&] {
      SpGemmHandle<I, double> handle(a, a, plain);
      return Matrix(handle.execute(a, a));
    });
    EXPECT_TRUE(approx_equal(c, expected)) << algorithm_name(algo) << " unfused";

    SpGemmOptions fused = plain;
    fused.epilogue = spec;
    const Matrix f = in_short_team([&] {
      SpGemmHandle<I, double> handle(a, a, fused);
      return Matrix(handle.execute(a, a));
    });
    EXPECT_TRUE(approx_equal(f, pruned)) << algorithm_name(algo) << " fused";
  }
}

TEST_F(RowPipelineShortTeam, MultiplyWithEpilogue) {
  const EpilogueSpec spec = prune_spec();
  const Matrix pruned = prune_scale_ref(expected, spec);
  for (const Algorithm algo : kAllAlgorithms) {
    if (!planable(algo)) continue;
    SpGemmOptions opts = short_team_opts(algo);
    opts.epilogue = spec;
    const Matrix f = in_short_team(
        [&] { return multiply_with_epilogue(a, a, opts); });
    EXPECT_TRUE(approx_equal(f, pruned)) << algorithm_name(algo) << " prune";
  }
}

TEST_F(RowPipelineShortTeam, MultiplyRap) {
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 3);
  const Matrix r = transpose(p);
  const Matrix rap = spgemm_reference(r, spgemm_reference(a, p));
  for (const Algorithm algo : kAllAlgorithms) {
    if (!planable(algo)) continue;
    const SpGemmOptions opts = short_team_opts(algo);
    const Matrix c =
        in_short_team([&] { return multiply_rap(r, a, p, opts); });
    EXPECT_TRUE(approx_equal(c, rap)) << algorithm_name(algo);
  }
}

// ---------------------------------------------------------------------------
// One-shot == planned execute across the configuration lattice.
// ---------------------------------------------------------------------------

struct LatticePoint {
  Algorithm algo;
  EpilogueKind epilogue;
  int capture;  ///< 0 default budget, 1 a 2 KiB budget, 2 reuse off
  SortOutput sorted;
  int threads;

  [[nodiscard]] std::string label() const {
    return std::string(algorithm_name(algo)) + " epi" +
           std::to_string(static_cast<int>(epilogue)) + " cap" +
           std::to_string(capture) +
           (sorted == SortOutput::kYes ? " sorted" : " unsorted") + " t" +
           std::to_string(threads);
  }

  [[nodiscard]] SpGemmOptions options() const {
    SpGemmOptions opts;
    opts.algorithm = algo;
    opts.threads = threads;
    opts.sort_output = sorted;
    if (capture == 1) opts.reuse_budget_bytes = 2048;
    if (capture == 2) opts.reuse = StructureReuse::kOff;
    if (epilogue == EpilogueKind::kPruneScale) {
      opts.epilogue.kind = EpilogueKind::kPruneScale;
      opts.epilogue.inflation = 2.0;
      opts.epilogue.prune_below = 0.05;
    }
    return opts;
  }

  /// The point's one-shot product: multiply_with_epilogue when fused.
  Matrix once(const Matrix& a, SpGemmStats* stats) const {
    return epilogue == EpilogueKind::kNone
               ? multiply(a, a, options(), stats)
               : multiply_with_epilogue(a, a, options(), stats);
  }
};

void check_lattice_point(const Matrix& a, const LatticePoint& pt) {
  const std::string label = pt.label();
  const SpGemmOptions opts = pt.options();
  const bool fused = pt.epilogue != EpilogueKind::kNone;

  SpGemmStats once_stats;
  const Matrix once = pt.once(a, &once_stats);

  SpGemmHandle<I, double> handle(a, a, opts);
  // Two executes: the first fills the pooled skeleton, the second replays
  // over it; both must reproduce the one-shot bytes.
  for (int rep = 0; rep < 2; ++rep) {
    const Matrix& planned = handle.execute(a, a);
    expect_bitwise_equal(planned, once,
                         label + " execute " + std::to_string(rep));
    if (fused) {
      EXPECT_EQ(handle.stats().epilogue_rows, once_stats.epilogue_rows)
          << label;
    }
  }
  Matrix into;
  handle.execute_into(a, a, into);
  expect_bitwise_equal(into, once, label + " execute_into");

  if (pt.capture == 2) {
    EXPECT_EQ(once_stats.reuse_rows_captured, 0U) << label;
    EXPECT_EQ(handle.stats().reuse_rows_captured, 0U) << label;
  }
}

TEST(RowPipelineLattice, OneShotMatchesPlannedExecute) {
  const Matrix a = rmat(8, 8, 83);
  for (const Algorithm algo : {Algorithm::kHash, Algorithm::kAdaptive}) {
    for (const EpilogueKind epi :
         {EpilogueKind::kNone, EpilogueKind::kPruneScale}) {
      for (const int capture : {0, 1, 2}) {
        for (const SortOutput sorted : {SortOutput::kYes, SortOutput::kNo}) {
          for (const int threads : {1, 2, 4}) {
            check_lattice_point(a, {algo, epi, capture, sorted, threads});
          }
        }
      }
    }
  }
}

TEST(RowPipelineLattice, EveryTwoPhaseKernelOverflowsCapture) {
  // A 2 KiB capture budget leaves most rows of this product to the
  // count-then-re-probe branch, in every pass of the pipeline.
  const Matrix a = rmat(8, 8, 89);
  for (const Algorithm algo :
       {Algorithm::kHashVector, Algorithm::kSpa, Algorithm::kKkHash}) {
    for (const EpilogueKind epi :
         {EpilogueKind::kNone, EpilogueKind::kPruneScale}) {
      const LatticePoint pt{algo, epi, 1, SortOutput::kNo, 2};
      check_lattice_point(a, pt);
      SpGemmStats stats;
      pt.once(a, &stats);
      EXPECT_LT(stats.reuse_rows_captured, stats.reuse_rows_total)
          << pt.label();
    }
  }
}

// ---------------------------------------------------------------------------
// multiply_rap on the tile schedule.
// ---------------------------------------------------------------------------

TEST(RowPipelineRap, BitIdenticalToTwoStepAtEveryThreadCount) {
  const Matrix a = apps::poisson_2d<I, double>(20, 20);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 3);
  const Matrix r = transpose(p);
  for (const int threads : {1, 2, 3, 4}) {
    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.threads = threads;
    opts.sort_output = SortOutput::kYes;
    opts.reuse_budget_bytes = 64;  // clamps tiles to 16 rows
    const std::string label = "t" + std::to_string(threads);
    SpGemmStats stats;
    const Matrix fused = multiply_rap(r, a, p, opts, &stats);
    expect_bitwise_equal(fused, multiply(r, multiply(a, p, opts), opts),
                         label);
    // The 64 B budget caps every tile at 16 rows of an owner's range.
    EXPECT_GE(stats.tile_count,
              static_cast<std::uint64_t>((r.nrows + 15) / 16))
        << label;
    EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(r.nrows))
        << label;
  }
}

// ---------------------------------------------------------------------------
// The one-phase driver under every opts.schedule variant.
// ---------------------------------------------------------------------------

enum class OnePhase { kHeap, kMerge, kSpa1p, kIkj, kMasked };

constexpr OnePhase kOnePhaseKernels[] = {OnePhase::kHeap, OnePhase::kMerge,
                                         OnePhase::kSpa1p, OnePhase::kIkj,
                                         OnePhase::kMasked};

constexpr parallel::SchedulePolicy kPolicies[] = {
    parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
    parallel::SchedulePolicy::kGuided, parallel::SchedulePolicy::kBalanced,
    parallel::SchedulePolicy::kBalancedParallel};

std::string one_phase_label(OnePhase k, const SpGemmOptions& opts) {
  static const char* const kNames[] = {"heap", "merge", "spa1p", "ikj",
                                       "masked"};
  return std::string(kNames[static_cast<int>(k)]) + " " +
         parallel::schedule_policy_name(opts.schedule) + " t" +
         std::to_string(opts.threads) +
         (opts.sort_output == SortOutput::kYes ? " sorted" : " unsorted");
}

/// Kernel k on A*A; the masked product takes A as its mask.
Matrix one_phase(OnePhase k, const Matrix& a, SpGemmOptions opts) {
  switch (k) {
    case OnePhase::kHeap:
      opts.algorithm = Algorithm::kHeap;
      break;
    case OnePhase::kMerge:
      opts.algorithm = Algorithm::kMerge;
      break;
    case OnePhase::kSpa1p:
      opts.algorithm = Algorithm::kSpa1p;
      break;
    case OnePhase::kIkj:
      opts.algorithm = Algorithm::kIkj;
      break;
    case OnePhase::kMasked:
      return multiply_masked(a, a, a, opts);
  }
  return multiply(a, a, opts);
}

/// The 1-thread, flop-balanced, per-owner-staged product every other
/// configuration must reproduce.
Matrix one_phase_baseline(OnePhase k, const Matrix& a, SortOutput sorted) {
  SpGemmOptions opts;
  opts.threads = 1;
  opts.schedule = parallel::SchedulePolicy::kBalancedParallel;
  opts.sort_output = sorted;
  return one_phase(k, a, opts);
}

/// The entries of c that lie in mask's structure.
Matrix restrict_to(const Matrix& c, const Matrix& mask) {
  Matrix out(c.nrows, c.ncols);
  for (I i = 0; i < c.nrows; ++i) {
    const auto mask_begin =
        mask.cols.begin() + static_cast<std::ptrdiff_t>(mask.row_begin(i));
    const auto mask_end =
        mask.cols.begin() + static_cast<std::ptrdiff_t>(mask.row_end(i));
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      const I col = c.cols[static_cast<std::size_t>(j)];
      if (std::find(mask_begin, mask_end, col) != mask_end) {
        out.cols.push_back(col);
        out.vals.push_back(c.vals[static_cast<std::size_t>(j)]);
      }
    }
    out.rpts[static_cast<std::size_t>(i) + 1] =
        static_cast<Offset>(out.cols.size());
  }
  return out;
}

TEST(OnePhaseLattice, EveryScheduleMatchesOneThreadBalancedParallel) {
  const Matrix a = rmat(8, 8, 97);
  // A caller's run-sched ICV, which the plain OpenMP loops set and must
  // hand back.
  omp_sched_t saved_kind;
  int saved_chunk = 0;
  omp_get_schedule(&saved_kind, &saved_chunk);
  omp_set_schedule(omp_sched_guided, 7);
  for (const OnePhase k : kOnePhaseKernels) {
    for (const SortOutput sorted : {SortOutput::kYes, SortOutput::kNo}) {
      const Matrix expected = one_phase_baseline(k, a, sorted);
      for (const parallel::SchedulePolicy policy : kPolicies) {
        for (const int threads : {1, 2, 4}) {
          SpGemmOptions opts;
          opts.threads = threads;
          opts.schedule = policy;
          opts.sort_output = sorted;
          const std::string label = one_phase_label(k, opts);
          const Matrix c = one_phase(k, a, opts);
          expect_bitwise_equal(c, expected, label);
          EXPECT_EQ(c.sortedness, expected.sortedness) << label;
          omp_sched_t kind;
          int chunk = 0;
          omp_get_schedule(&kind, &chunk);
          EXPECT_EQ(kind, omp_sched_guided) << label;
          EXPECT_EQ(chunk, 7) << label;
        }
      }
    }
  }
  omp_set_schedule(saved_kind, saved_chunk);
}

TEST(OnePhaseLattice, PlainLoopOnShortTeam) {
  const Matrix a = rmat(8, 8, 97);
  for (const OnePhase k : kOnePhaseKernels) {
    for (const SortOutput sorted : {SortOutput::kYes, SortOutput::kNo}) {
      SpGemmOptions opts;
      opts.threads = kRequestedThreads;
      opts.schedule = parallel::SchedulePolicy::kDynamic;
      opts.sort_output = sorted;
      const Matrix c = in_short_team([&] { return one_phase(k, a, opts); });
      expect_bitwise_equal(c, one_phase_baseline(k, a, sorted),
                           one_phase_label(k, opts) + " short team");
    }
  }
}

TEST(OnePhaseLattice, UnitValuesMatchReference) {
  const Matrix a = unit_rmat(8, 8, 101);
  const Matrix full = spgemm_reference(a, a);
  const Matrix masked = restrict_to(full, a);
  for (const OnePhase k : kOnePhaseKernels) {
    for (const parallel::SchedulePolicy policy : kPolicies) {
      SpGemmOptions opts;
      opts.threads = 2;
      opts.schedule = policy;
      const Matrix c = one_phase(k, a, opts);
      EXPECT_EQ(c.sortedness, Sortedness::kSorted);
      expect_bitwise_equal(c, k == OnePhase::kMasked ? masked : full,
                           one_phase_label(k, opts) + " unit values");
    }
  }
}

// ---------------------------------------------------------------------------
// kAuto's dense-row rule: a narrow product runs SPA-1p and gives Hash's bytes.
// ---------------------------------------------------------------------------

TEST(DenseRowRule, AutoMatchesHashBitwiseUnderEveryScheduleAndThreadCount) {
  const Matrix a = rmat(9, 8, 211);  // 512 columns: a 4 KiB dense row
  for (const SortOutput sorted : {SortOutput::kYes, SortOutput::kNo}) {
    ASSERT_EQ(recipe::resolve(Algorithm::kAuto, a, a, sorted),
              Algorithm::kSpa1p);
    for (const parallel::SchedulePolicy policy : kPolicies) {
      for (const int threads : {1, 2, 4}) {
        SpGemmOptions opts;
        opts.threads = threads;
        opts.schedule = policy;
        opts.sort_output = sorted;
        SpGemmOptions hash_opts = opts;
        hash_opts.algorithm = Algorithm::kHash;
        const std::string label =
            std::string(parallel::schedule_policy_name(policy)) + " t" +
            std::to_string(threads) +
            (sorted == SortOutput::kYes ? " sorted" : " unsorted");
        SpGemmStats stats;
        const Matrix c = multiply(a, a, opts, &stats);
        const Matrix expected = multiply(a, a, hash_opts);
        expect_bitwise_equal(c, expected, label);
        EXPECT_EQ(c.sortedness, expected.sortedness) << label;
        EXPECT_EQ(stats.symbolic_ms, 0.0) << label;  // one-phase SPA ran
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused epilogues in the one-phase driver: SPA-1p gives Hash's fused bytes.
// ---------------------------------------------------------------------------

TEST(OnePhaseEpilogue, Spa1pMatchesHashFusedUnderEveryScheduleAndTeam) {
  // Unit values: every product entry and its power is an exact integer, so
  // the kept entries cannot depend on the fold order.
  const Matrix a = unit_rmat(8, 8, 131);
  const EpilogueSpec spec = prune_spec();
  const Matrix kept_oracle = prune_scale_ref(spgemm_reference(a, a), spec);
  for (const SortOutput sorted : {SortOutput::kYes, SortOutput::kNo}) {
    SpGemmOptions hash_opts;
    hash_opts.algorithm = Algorithm::kHash;
    hash_opts.threads = 1;
    hash_opts.sort_output = sorted;
    hash_opts.epilogue = spec;
    const Matrix expected = multiply_with_epilogue(a, a, hash_opts);
    const auto check = [&](const SpGemmOptions& opts, bool short_team) {
      const std::string label = one_phase_label(OnePhase::kSpa1p, opts) +
                                (short_team ? " short team" : "");
      SpGemmStats stats;
      const auto run = [&] {
        return multiply_with_epilogue(a, a, opts, &stats);
      };
      const Matrix c = short_team ? in_short_team(run) : run();
      expect_bitwise_equal(c, expected, label);
      EXPECT_EQ(c.sortedness, expected.sortedness) << label;
      EXPECT_EQ(stats.symbolic_ms, 0.0) << label;  // one-phase SPA ran
      EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(a.nrows))
          << label;
      EXPECT_EQ(stats.nnz_out, static_cast<Offset>(c.nnz())) << label;
      EXPECT_EQ(c.nnz(), kept_oracle.nnz()) << label;
    };
    for (const parallel::SchedulePolicy policy : kPolicies) {
      SpGemmOptions opts;
      opts.algorithm = Algorithm::kSpa1p;
      opts.schedule = policy;
      opts.sort_output = sorted;
      opts.epilogue = spec;
      for (const int threads : {1, 2, 3}) {
        opts.threads = threads;
        check(opts, /*short_team=*/false);
      }
      opts.threads = kRequestedThreads;
      check(opts, /*short_team=*/true);
    }
  }
}

}  // namespace
}  // namespace spgemm
