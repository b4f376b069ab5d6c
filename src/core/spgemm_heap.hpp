// Heap SpGEMM (paper §4.2.3, after Azad et al. [3]).
//
// One-phase: each output row is produced by an nnz(a_i*)-way merge of the
// corresponding rows of B through a column-indexed min-heap, emitting the
// row already sorted.  Because nnz(c_i*) is unknown until the merge
// finishes, rows are staged into an upper-bound buffer (flop(c_i*) slots at
// offset flop_prefix[i]) and compacted into the exact-size CSR afterwards.
//
// The schedule option reproduces the paper's Fig. 9 ablation:
//   kStatic/kDynamic/kGuided   plain OpenMP row loops, single global staging
//   kBalanced                  flop-balanced partition, single global staging
//   kBalancedParallel          flop-balanced partition, per-thread staging
//                              allocated inside the owning thread (the
//                              paper's winning configuration)
// The single staging buffer deliberately uses ::operator new so the large-
// deallocation cliff of §3.2 remains observable; per-thread staging goes
// through the scalable pool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "accumulator/heap.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/pool_allocator.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {
namespace detail {

/// Merge one row: returns the number of distinct columns written to
/// out_cols/out_vals (capacity must be >= flop of the row).
template <IndexType IT, ValueType VT, typename SR = PlusTimes>
std::size_t heap_merge_row(const CsrMatrix<IT, VT>& a,
                           const CsrMatrix<IT, VT>& b, std::size_t row,
                           StreamHeap<IT, VT>& heap, IT* out_cols,
                           VT* out_vals) {
  heap.prepare(static_cast<std::size_t>(a.rpts[row + 1] - a.rpts[row]));
  for (Offset j = a.rpts[row]; j < a.rpts[row + 1]; ++j) {
    const auto k = static_cast<std::size_t>(
        a.cols[static_cast<std::size_t>(j)]);
    if (b.rpts[k] < b.rpts[k + 1]) {
      heap.push({b.cols[static_cast<std::size_t>(b.rpts[k])],
                 a.vals[static_cast<std::size_t>(j)], b.rpts[k],
                 b.rpts[k + 1]});
    }
  }

  std::size_t count = 0;
  bool open = false;
  IT cur_col = 0;
  VT cur_val = VT{0};
  while (!heap.empty()) {
    HeapStream<IT, VT> s = heap.top();
    const VT product =
        SR::mul(s.scale, b.vals[static_cast<std::size_t>(s.pos)]);
    if (open && s.col == cur_col) {
      SR::add_into(cur_val, product);
    } else {
      if (open) {
        out_cols[count] = cur_col;
        out_vals[count] = cur_val;
        ++count;
      }
      cur_col = s.col;
      cur_val = product;
      open = true;
    }
    ++s.pos;
    if (s.pos < s.end) {
      s.col = b.cols[static_cast<std::size_t>(s.pos)];
      heap.replace_top(s);
    } else {
      heap.pop();
    }
  }
  if (open) {
    out_cols[count] = cur_col;
    out_vals[count] = cur_val;
    ++count;
  }
  return count;
}

}  // namespace detail

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_heap(const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b,
                              const SpGemmOptions& opts = {},
                              SpGemmStats* stats = nullptr,
                              SR /*semiring*/ = {}) {
  using parallel::SchedulePolicy;
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  const bool balanced = parallel::is_balanced(opts.schedule);
  parallel::RowPartition part =
      balanced ? parallel::rows_to_threads(nrows, a.rpts.data(),
                                           a.cols.data(), b.rpts.data(),
                                           nthreads)
               : parallel::rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                      b.rpts.data(), nthreads);
  const Offset total_flop = part.total_flop();
  if (stats != nullptr) {
    stats->setup_ms = timer.millis();
    stats->flop = total_flop;
    stats->symbolic_ms = 0.0;  // one-phase
  }

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);

  const bool per_thread_staging =
      opts.schedule == SchedulePolicy::kBalancedParallel;

  timer.reset();
  IT* staging_cols = nullptr;
  VT* staging_vals = nullptr;
  if (!per_thread_staging) {
    staging_cols = static_cast<IT*>(
        ::operator new(static_cast<std::size_t>(total_flop) * sizeof(IT)));
    staging_vals = static_cast<VT*>(
        ::operator new(static_cast<std::size_t>(total_flop) * sizeof(VT)));
  }
  // Per-thread staging pointers; only used in the parallel scheme.
  std::vector<IT*> t_cols(static_cast<std::size_t>(nthreads), nullptr);
  std::vector<VT*> t_vals(static_cast<std::size_t>(nthreads), nullptr);

  if (balanced) {
#pragma omp parallel num_threads(nthreads)
    parallel::for_each_owner(part.threads(), [&](int tid) {
      const std::size_t row_begin =
          part.offsets[static_cast<std::size_t>(tid)];
      const std::size_t row_end =
          part.offsets[static_cast<std::size_t>(tid) + 1];
      const Offset base = part.flop_prefix[row_begin];
      IT* cols_out;
      VT* vals_out;
      if (per_thread_staging) {
        const auto mine = static_cast<std::size_t>(
            part.flop_prefix[row_end] - base);
        cols_out = static_cast<IT*>(
            mem::pool_malloc(std::max<std::size_t>(mine, 1) * sizeof(IT)));
        vals_out = static_cast<VT*>(
            mem::pool_malloc(std::max<std::size_t>(mine, 1) * sizeof(VT)));
        t_cols[static_cast<std::size_t>(tid)] = cols_out;
        t_vals[static_cast<std::size_t>(tid)] = vals_out;
      } else {
        cols_out = staging_cols + base;
        vals_out = staging_vals + base;
      }
      StreamHeap<IT, VT> heap;
      for (std::size_t i = row_begin; i < row_end; ++i) {
        const auto at = static_cast<std::size_t>(
            part.flop_prefix[i] - base);
        c.rpts[i + 1] =
            static_cast<Offset>(detail::heap_merge_row<IT, VT, SR>(
                a, b, i, heap, cols_out + at, vals_out + at));
      }
    });
  } else {
    // Plain OpenMP scheduling over rows; every row writes into the global
    // staging buffer at its flop-prefix offset, so any schedule is safe.
    auto run_rows = [&](auto schedule_tag) {
      (void)schedule_tag;
#pragma omp parallel num_threads(nthreads)
      {
        StreamHeap<IT, VT> heap;
        if constexpr (decltype(schedule_tag)::value == 0) {
#pragma omp for schedule(static)
          for (std::size_t i = 0; i < nrows; ++i) {
            c.rpts[i + 1] = static_cast<Offset>(detail::heap_merge_row<IT, VT, SR>(
                a, b, i, heap, staging_cols + part.flop_prefix[i],
                staging_vals + part.flop_prefix[i]));
          }
        } else if constexpr (decltype(schedule_tag)::value == 1) {
#pragma omp for schedule(dynamic)
          for (std::size_t i = 0; i < nrows; ++i) {
            c.rpts[i + 1] = static_cast<Offset>(detail::heap_merge_row<IT, VT, SR>(
                a, b, i, heap, staging_cols + part.flop_prefix[i],
                staging_vals + part.flop_prefix[i]));
          }
        } else {
#pragma omp for schedule(guided)
          for (std::size_t i = 0; i < nrows; ++i) {
            c.rpts[i + 1] = static_cast<Offset>(detail::heap_merge_row<IT, VT, SR>(
                a, b, i, heap, staging_cols + part.flop_prefix[i],
                staging_vals + part.flop_prefix[i]));
          }
        }
      }
    };
    if (opts.schedule == SchedulePolicy::kDynamic) {
      run_rows(std::integral_constant<int, 1>{});
    } else if (opts.schedule == SchedulePolicy::kGuided) {
      run_rows(std::integral_constant<int, 2>{});
    } else {
      run_rows(std::integral_constant<int, 0>{});
    }
  }

  // Compact: exact-size output from the staged rows.
  for (std::size_t i = 0; i < nrows; ++i) c.rpts[i + 1] += c.rpts[i];
  const auto nnz_c = static_cast<std::size_t>(c.rpts[nrows]);
  c.cols.resize(nnz_c);
  c.vals.resize(nnz_c);

#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    const std::size_t row_begin =
        part.offsets[static_cast<std::size_t>(tid)];
    const std::size_t row_end =
        part.offsets[static_cast<std::size_t>(tid) + 1];
    const Offset base = balanced ? part.flop_prefix[row_begin] : 0;
    const IT* src_cols =
        per_thread_staging ? t_cols[static_cast<std::size_t>(tid)]
                           : staging_cols;
    const VT* src_vals =
        per_thread_staging ? t_vals[static_cast<std::size_t>(tid)]
                           : staging_vals;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const auto at = static_cast<std::size_t>(
          part.flop_prefix[i] - (per_thread_staging ? base : 0));
      const auto len =
          static_cast<std::size_t>(c.rpts[i + 1] - c.rpts[i]);
      const auto dst = static_cast<std::size_t>(c.rpts[i]);
      for (std::size_t j = 0; j < len; ++j) {
        c.cols[dst + j] = src_cols[at + j];
        c.vals[dst + j] = src_vals[at + j];
      }
    }
    // Free per-thread staging inside the owning thread (the point of the
    // "parallel" scheme).
    if (per_thread_staging) {
      mem::pool_free(t_cols[static_cast<std::size_t>(tid)]);
      mem::pool_free(t_vals[static_cast<std::size_t>(tid)]);
    }
  });
  if (!per_thread_staging) {
    ::operator delete(staging_cols);
    ::operator delete(staging_vals);
  }

  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.rpts[nrows];
    stats->probes = 0;
  }
  c.sortedness = Sortedness::kSorted;
  return c;
}

}  // namespace spgemm
