// The one-phase SpGEMM row pass.
//
// Heap (paper §4.2.3), Merge, SPA-1p (the MKL-inspector stand-in), IKJ and
// masked SpGEMM (which the fused triangle count runs) never count a row
// before computing it.  Each row is computed into room sized by an upper
// bound on its nnz (its flop, or its mask row's nnz for the masked product,
// capped at C's column count) and the staged rows are copied into the
// exact-size CSR once every row is known.  one_phase_product() below is
// that pass; a kernel supplies only a per-thread factory for its row
// function.  A fused
// row epilogue (core/epilogue.hpp; SPA-1p under multiply_with_epilogue)
// runs on each row as soon as the row function returns, and only its kept
// entries stay staged.  The pass reports the two-phase one-shot's phases
// minus the symbolic one (oneshot.setup, oneshot.numeric for the row pass,
// oneshot.placement for the scan and copy) under the oneshot.multiply span.
// The scan is the two-phase pipeline's: kept counts at rpts[i], then
// parallel::exclusive_scan_inplace.
//
// opts.schedule selects the paper's Fig. 9 variants:
//   kStatic/kDynamic/kGuided   plain OpenMP row loops, single staging
//   kBalanced                  flop-balanced owner split, single staging
//   kBalancedParallel          flop-balanced owner split, per-owner staging
//                              allocated inside the owning thread (the
//                              paper's winning configuration)
// Staging: each owner's staging is sized by the bounds of its rows.  Under
// the balanced schedules an owner writes each row at its running cursor,
// right after the rows it kept before, so its staged rows stay contiguous:
// the pages it touches hold about its kept entries plus one row's room, and
// placement copies each owner's staging to C in one block.  The plain loops
// hand rows to threads out of order, so each row keeps its own room at its
// bound's prefix offset and is placed row by row.  The single staging
// buffer deliberately uses ::operator new so the large-deallocation cliff
// of §3.2 remains observable; per-owner staging goes through the scalable
// pool.  Every row is computed by the same row code whichever thread runs
// it, so the output never depends on the variant or the thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/epilogue.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/pool_allocator.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/prefix_sum.hpp"
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

/// Row i of a one-phase product into staging at cols/vals, room for
/// min(bound, C's column count) entries; returns the row's nnz.  Kept out of
/// line: inlined into the driver's row loop, a row body's inner loop
/// competes with the loop's own state for registers and spills
/// (multiply_masked ran ~20% slower).
template <typename Row, IndexType IT, ValueType VT>
[[gnu::noinline]] std::size_t stage_row(Row& row, std::size_t i, Offset bound,
                                        IT* cols, VT* vals) {
  return static_cast<std::size_t>(row(i, bound, cols, vals));
}

/// Copy rows [row_begin, row_end), staged contiguously at cols/vals, to
/// their offsets rpts[row_begin..] in c; null `vals` copies columns only.
/// Both row drivers place through here: one block per owner (the balanced
/// one-phase schedules and every two-phase pass), or one row at a time
/// (the one-phase plain OpenMP loops).
template <IndexType IT, ValueType VT>
void place_rows(const Offset* rpts, std::size_t row_begin, std::size_t row_end,
                const IT* cols, const VT* vals, CsrMatrix<IT, VT>& c) {
  const auto dst = static_cast<std::size_t>(rpts[row_begin]);
  const auto len = static_cast<std::size_t>(rpts[row_end]) - dst;
  std::copy_n(cols, len, c.cols.data() + dst);
  if (vals != nullptr) std::copy_n(vals, len, c.vals.data() + dst);
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
/// A fused opts.epilogue runs on each row in its staging, and only what it
/// keeps stays staged.  The result claims sortedness per opts.sort_output;
/// kernels that always sort override the claim.
template <IndexType IT, ValueType VT, typename MakeRow>
CsrMatrix<IT, VT> one_phase_product(const CsrMatrix<IT, VT>& a,
                                    const CsrMatrix<IT, VT>& b,
                                    const SpGemmOptions& opts,
                                    SpGemmStats* stats, MakeRow&& make_row,
                                    const Offset* bound_prefix = nullptr) {
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
  const bool fused = opts.epilogue.enabled();
  const double setup_s = timer.seconds();
  const auto max_bound = [bounds](std::size_t begin, std::size_t end) {
    Offset best = 0;
    for (std::size_t i = begin; i < end; ++i) {
      best = std::max(best, bounds[i + 1] - bounds[i]);
    }
    return best;
  };

  // Owner t stages in buffer slot(t), from region(t) on: the single buffer
  // (slot 0), or its own buffer.  Balanced owners start at their first
  // row's room and write each row at their cursor; the plain loops write
  // row i at room[i].
  timer.reset();
  const bool balanced = parallel::is_balanced(opts.schedule);
  const bool per_owner =
      opts.schedule == parallel::SchedulePolicy::kBalancedParallel;
  const int owners = part.threads();
  const auto first_row = [&part](int t) {
    return part.offsets[static_cast<std::size_t>(t)];
  };
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
  const auto region = [&](int t) {
    return per_owner ? std::size_t{0}
                     : static_cast<std::size_t>(room[first_row(t)]);
  };

  // One epilogue state per owner, or per team thread under the plain loops.
  std::vector<EpilogueState> epi_states(
      fused ? static_cast<std::size_t>(balanced ? owners : nthreads) : 0);
  // The row's kept count: all of it unfused (null state), else what the
  // epilogue keeps after compacting the row in place.
  const auto finish_row = [&](EpilogueState* st, IT* cols, VT* vals,
                              std::size_t nnz) {
    if (st == nullptr) return nnz;
    const std::uint64_t t0 = monotonic_ns();
    const std::size_t kept =
        apply_row_epilogue(*st, cols, vals, nnz, cols, vals);
    st->seconds += static_cast<double>(monotonic_ns() - t0) * 1e-9;
    return kept;
  };
  const auto begin_state = [&](int t) -> EpilogueState* {
    if (!fused) return nullptr;
    EpilogueState* st = &epi_states[static_cast<std::size_t>(t)];
    st->begin_pass(opts.epilogue);
    return st;
  };

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  if (balanced) {
#pragma omp parallel num_threads(nthreads)
    parallel::for_each_owner(owners, [&](int t) {
      const std::size_t begin = first_row(t);
      const std::size_t end = first_row(t + 1);
      if (per_owner) {
        const auto mine = static_cast<std::size_t>(
            std::max<Offset>(room[end] - room[begin], 1));
        stage_cols[slot(t)] =
            static_cast<IT*>(mem::pool_malloc(mine * sizeof(IT)));
        stage_vals[slot(t)] =
            static_cast<VT*>(mem::pool_malloc(mine * sizeof(VT)));
      }
      EpilogueState* st = begin_state(t);
      IT* cols = stage_cols[slot(t)] + region(t);
      VT* vals = stage_vals[slot(t)] + region(t);
      auto row = make_row(max_bound(begin, end));
      std::size_t at = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t nnz = stage_row(row, i, bounds[i + 1] - bounds[i],
                                          cols + at, vals + at);
        const std::size_t kept = finish_row(st, cols + at, vals + at, nnz);
        c.rpts[i] = static_cast<Offset>(kept);
        at += kept;
      }
    });
  } else {
    const parallel::ScopedRunSchedule run_schedule(opts.schedule);
    const Offset widest = max_bound(0, nrows);
#pragma omp parallel num_threads(nthreads)
    {
      EpilogueState* st = begin_state(omp_get_thread_num());
      auto row = make_row(widest);
#pragma omp for schedule(runtime)
      for (std::size_t i = 0; i < nrows; ++i) {
        IT* cols = stage_cols[0] + room[i];
        VT* vals = stage_vals[0] + room[i];
        const std::size_t nnz =
            stage_row(row, i, bounds[i + 1] - bounds[i], cols, vals);
        c.rpts[i] = static_cast<Offset>(finish_row(st, cols, vals, nnz));
      }
    }
  }
  const double numeric_s = timer.seconds();

  // Scan the kept counts at rpts[i], then copy: a balanced owner's kept rows
  // are one block, the plain loops' rows are copied one by one.  Each owner
  // frees its own staging in the thread that allocated it.
  timer.reset();
  c.rpts[nrows] = 0;
  parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);
  const auto nnz_c = static_cast<std::size_t>(c.rpts[nrows]);
  c.cols.resize(nnz_c);
  c.vals.resize(nnz_c);
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(owners, [&](int t) {
    const std::size_t begin = first_row(t);
    const std::size_t end = first_row(t + 1);
    if (balanced) {
      place_rows(c.rpts.data(), begin, end, stage_cols[slot(t)] + region(t),
                 stage_vals[slot(t)] + region(t), c);
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const auto from = static_cast<std::size_t>(room[i]);
        place_rows(c.rpts.data(), i, i + 1, stage_cols[0] + from,
                   stage_vals[0] + from, c);
      }
    }
    if (per_owner) {
      mem::pool_free(stage_cols[slot(t)]);
      mem::pool_free(stage_vals[slot(t)]);
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
  SpGemmStats epi_stats;
  if (fused) {
    fold_epilogue(
        epi_states,
        [](const EpilogueState& st) -> const EpilogueState& { return st; },
        epi_stats);
  }
  if (stats != nullptr) {
    stats->setup_ms = setup_s * 1e3;
    stats->flop = part.total_flop();
    stats->symbolic_ms = 0.0;  // one-phase
    stats->numeric_ms = (numeric_s + place_s) * 1e3;
    stats->nnz_out = c.rpts[nrows];
    stats->probes = 0;
    stats->epilogue_rows = epi_stats.epilogue_rows;
    stats->epilogue_ms = epi_stats.epilogue_ms;
  }
  c.sortedness = opts.sort_output == SortOutput::kYes ? Sortedness::kSorted
                                                      : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm::detail
