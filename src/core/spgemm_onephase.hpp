// The one-phase SpGEMM row pass.
//
// Heap (paper §4.2.3), Merge, SPA-1p (the MKL-inspector stand-in), IKJ,
// masked SpGEMM and the direct Adaptive kernel never count a row before
// computing it.  Each row is computed into room sized by an upper bound on
// its nnz (its flop, or its mask row's nnz for the masked product, capped
// at C's column count) and the staged rows are compacted into the exact-
// size CSR once every row is known.  one_phase_product() below is that
// pass; a kernel supplies only a per-thread factory for its row function.
// It reports the two-phase one-shot's phases minus the symbolic one
// (oneshot.setup, oneshot.numeric for the row pass, oneshot.placement for
// the scan and compaction) under the oneshot.multiply span.
//
// opts.schedule selects the paper's Fig. 9 variants:
//   kStatic/kDynamic/kGuided   plain OpenMP row loops, single staging
//   kBalanced                  flop-balanced owner split, single staging
//   kBalancedParallel          flop-balanced owner split, per-owner staging
//                              allocated inside the owning thread (the
//                              paper's winning configuration)
// The single staging buffer deliberately uses ::operator new so the large-
// deallocation cliff of §3.2 remains observable; per-owner staging goes
// through the scalable pool.  Every row is computed by the same row code
// whichever thread runs it, so the output never depends on the variant or
// the thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/pool_allocator.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"
#include "parallel/schedule.hpp"
#include "telemetry/span.hpp"

namespace spgemm::detail {

/// The owner split of A*B's rows: flop-balanced (paper Fig. 6) or equal
/// rows, per opts.schedule.  This pass and the two-phase row pipeline
/// (core/spgemm_twophase.hpp) both partition here.
template <IndexType IT, ValueType VT>
parallel::RowPartition partition_rows(const CsrMatrix<IT, VT>& a,
                                      const CsrMatrix<IT, VT>& b,
                                      parallel::SchedulePolicy schedule,
                                      int nthreads) {
  const auto nrows = static_cast<std::size_t>(a.nrows);
  return parallel::is_balanced(schedule)
             ? parallel::rows_to_threads(nrows, a.rpts.data(), a.cols.data(),
                                         b.rpts.data(), nthreads)
             : parallel::rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                    b.rpts.data(), nthreads);
}

/// Write an accumulator's row to cols/vals, sorted or in insertion order,
/// reset it for the next row and return the row's nnz.
template <typename Acc, IndexType IT, ValueType VT>
std::size_t emit_row(Acc& acc, bool sorted, IT* cols, VT* vals) {
  if (sorted) {
    acc.extract_sorted(cols, vals);
  } else {
    acc.extract_unsorted(cols, vals);
  }
  const std::size_t count = acc.count();
  acc.reset();
  return count;
}

/// Row i of a one-phase product into its staging room, which starts at
/// room[i] - row0 of cols/vals; the row function sees the row's bound
/// bounds[i+1] - bounds[i].  Kept out of line: inlined into the driver's row
/// loop, a row body's inner loop competes with the loop's own state for
/// registers and spills (multiply_masked ran ~20% slower).
template <typename Row, IndexType IT, ValueType VT>
[[gnu::noinline]] Offset stage_row(Row& row, std::size_t i,
                                   const Offset* bounds, const Offset* room,
                                   Offset row0, IT* cols, VT* vals) {
  const auto at = static_cast<std::size_t>(room[i] - row0);
  return static_cast<Offset>(
      row(i, bounds[i + 1] - bounds[i], cols + at, vals + at));
}

/// The exclusive prefix of each row's staging room: its bound, capped at
/// `ncols` because a row never holds more entries than C has columns.
inline std::vector<Offset> staging_prefix(const Offset* bounds,
                                          std::size_t nrows, Offset ncols) {
  std::vector<Offset> room(nrows + 1);
  room[0] = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    room[i + 1] = room[i] + std::min(bounds[i + 1] - bounds[i], ncols);
  }
  return room;
}

/// C = A*B by one pass over the rows.  `make_row(max_bound)` runs once per
/// owner (once per thread under the plain OpenMP loops), inside the thread
/// that uses it, and returns the row function
///   row(i, bound, cols, vals) -> nnz of row i
/// which writes row i into cols/vals, room for min(bound, b.ncols) entries.
/// `max_bound` is the largest bound among the rows that row function may
/// see.  `bound_prefix` (size nrows+1, exclusive) bounds each row's nnz; null
/// bounds every row by its flop, which is also what the row function sees.
/// The result claims sortedness per opts.sort_output; kernels that always
/// sort override the claim.
template <IndexType IT, ValueType VT, typename MakeRow>
CsrMatrix<IT, VT> one_phase_product(const CsrMatrix<IT, VT>& a,
                                    const CsrMatrix<IT, VT>& b,
                                    const SpGemmOptions& opts,
                                    SpGemmStats* stats, MakeRow&& make_row,
                                    const Offset* bound_prefix = nullptr) {
  using parallel::SchedulePolicy;
  TELEM_SPAN("oneshot.multiply");
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const parallel::RowPartition part =
      partition_rows(a, b, opts.schedule, nthreads);
  const Offset* bounds =
      bound_prefix != nullptr ? bound_prefix : part.flop_prefix.data();
  const std::vector<Offset> room =
      staging_prefix(bounds, nrows, static_cast<Offset>(b.ncols));
  const double setup_s = timer.seconds();
  const auto max_bound = [bounds](std::size_t begin, std::size_t end) {
    Offset best = 0;
    for (std::size_t i = begin; i < end; ++i) {
      best = std::max(best, bounds[i + 1] - bounds[i]);
    }
    return best;
  };

  // Owner t stages row i in buffer slot(t) at room[i] - base(t): the single
  // buffer (slot 0, base 0), or its own buffer, whose base is the room
  // offset of its first row.
  timer.reset();
  const bool per_owner = opts.schedule == SchedulePolicy::kBalancedParallel;
  const int owners = part.threads();
  std::vector<IT*> stage_cols(static_cast<std::size_t>(per_owner ? owners : 1));
  std::vector<VT*> stage_vals(stage_cols.size());
  if (!per_owner) {
    const auto total = static_cast<std::size_t>(room[nrows]);
    stage_cols[0] = static_cast<IT*>(::operator new(total * sizeof(IT)));
    stage_vals[0] = static_cast<VT*>(::operator new(total * sizeof(VT)));
  }
  const auto slot = [per_owner](int t) {
    return per_owner ? static_cast<std::size_t>(t) : std::size_t{0};
  };
  const auto base = [&](int t) {
    return per_owner ? room[part.offsets[static_cast<std::size_t>(t)]]
                     : Offset{0};
  };

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  if (parallel::is_balanced(opts.schedule)) {
#pragma omp parallel num_threads(nthreads)
    parallel::for_each_owner(owners, [&](int t) {
      const std::size_t begin = part.offsets[static_cast<std::size_t>(t)];
      const std::size_t end = part.offsets[static_cast<std::size_t>(t) + 1];
      if (per_owner) {
        const auto mine = static_cast<std::size_t>(
            std::max<Offset>(room[end] - base(t), 1));
        stage_cols[slot(t)] =
            static_cast<IT*>(mem::pool_malloc(mine * sizeof(IT)));
        stage_vals[slot(t)] =
            static_cast<VT*>(mem::pool_malloc(mine * sizeof(VT)));
      }
      auto row = make_row(max_bound(begin, end));
      for (std::size_t i = begin; i < end; ++i) {
        c.rpts[i + 1] =
            stage_row(row, i, bounds, room.data(), base(t),
                      stage_cols[slot(t)], stage_vals[slot(t)]);
      }
    });
  } else {
    const parallel::ScopedRunSchedule run_schedule(opts.schedule);
    const Offset widest = max_bound(0, nrows);
#pragma omp parallel num_threads(nthreads)
    {
      auto row = make_row(widest);
#pragma omp for schedule(runtime)
      for (std::size_t i = 0; i < nrows; ++i) {
        c.rpts[i + 1] = stage_row(row, i, bounds, room.data(), 0,
                                  stage_cols[0], stage_vals[0]);
      }
    }
  }
  const double numeric_s = timer.seconds();

  // Scan, then compact: each owner copies its rows to their final offsets
  // and frees its own staging in the thread that allocated it.
  timer.reset();
  for (std::size_t i = 0; i < nrows; ++i) c.rpts[i + 1] += c.rpts[i];
  const auto nnz_c = static_cast<std::size_t>(c.rpts[nrows]);
  c.cols.resize(nnz_c);
  c.vals.resize(nnz_c);
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(owners, [&](int t) {
    const std::size_t s = slot(t);
    const Offset row0 = base(t);
    for (std::size_t i = part.offsets[static_cast<std::size_t>(t)];
         i < part.offsets[static_cast<std::size_t>(t) + 1]; ++i) {
      const auto at = static_cast<std::size_t>(room[i] - row0);
      const auto len = static_cast<std::size_t>(c.rpts[i + 1] - c.rpts[i]);
      const auto dst = static_cast<std::size_t>(c.rpts[i]);
      std::copy_n(stage_cols[s] + at, len, c.cols.data() + dst);
      std::copy_n(stage_vals[s] + at, len, c.vals.data() + dst);
    }
    if (per_owner) {
      mem::pool_free(stage_cols[s]);
      mem::pool_free(stage_vals[s]);
    }
  });
  if (!per_owner) {
    ::operator delete(stage_cols[0]);
    ::operator delete(stage_vals[0]);
  }
  const double place_s = timer.seconds();

  // Same phase names as the two-phase one-shot, minus its symbolic phase.
  telemetry::phase_observe("oneshot.setup", setup_s);
  telemetry::phase_observe("oneshot.numeric", numeric_s);
  telemetry::phase_observe("oneshot.placement", place_s);
  if (stats != nullptr) {
    stats->setup_ms = setup_s * 1e3;
    stats->flop = part.total_flop();
    stats->symbolic_ms = 0.0;  // one-phase
    stats->numeric_ms = (numeric_s + place_s) * 1e3;
    stats->nnz_out = c.rpts[nrows];
    stats->probes = 0;
  }
  c.sortedness = opts.sort_output == SortOutput::kYes ? Sortedness::kSorted
                                                      : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm::detail
