// One-phase SPA SpGEMM — the MKL-inspector stand-in (see DESIGN.md).
//
// No symbolic phase: rows are accumulated with the dense SPA and staged
// into a flop-upper-bound buffer (per-thread, pool-backed), then compacted.
// Output is unsorted by default, matching the paper's Table 1 entry for
// MKL-inspector (1 phase, Any/Unsorted); sorted extraction is available for
// API uniformity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "accumulator/spa.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/pool_allocator.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> spgemm_spa1p(const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b,
                               const SpGemmOptions& opts = {},
                               SpGemmStats* stats = nullptr) {
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part = parallel::rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), b.rpts.data(), nthreads);
  if (stats != nullptr) {
    stats->setup_ms = timer.millis();
    stats->flop = part.total_flop();
    stats->symbolic_ms = 0.0;  // one-phase
  }

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  std::vector<IT*> t_cols(static_cast<std::size_t>(nthreads), nullptr);
  std::vector<VT*> t_vals(static_cast<std::size_t>(nthreads), nullptr);

  timer.reset();
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    const std::size_t row_begin =
        part.offsets[static_cast<std::size_t>(tid)];
    const std::size_t row_end =
        part.offsets[static_cast<std::size_t>(tid) + 1];
    const Offset base = part.flop_prefix[row_begin];
    const auto mine =
        static_cast<std::size_t>(part.flop_prefix[row_end] - base);
    IT* cols_out = static_cast<IT*>(
        mem::pool_malloc(std::max<std::size_t>(mine, 1) * sizeof(IT)));
    VT* vals_out = static_cast<VT*>(
        mem::pool_malloc(std::max<std::size_t>(mine, 1) * sizeof(VT)));
    t_cols[static_cast<std::size_t>(tid)] = cols_out;
    t_vals[static_cast<std::size_t>(tid)] = vals_out;

    SpaAccumulator<IT, VT> acc;
    acc.prepare(static_cast<std::size_t>(b.ncols));
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        const VT av = a.vals[static_cast<std::size_t>(j)];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          acc.accumulate(b.cols[static_cast<std::size_t>(l)],
                         av * b.vals[static_cast<std::size_t>(l)]);
        }
      }
      const auto at = static_cast<std::size_t>(part.flop_prefix[i] - base);
      if (opts.sort_output == SortOutput::kYes) {
        acc.extract_sorted(cols_out + at, vals_out + at);
      } else {
        acc.extract_unsorted(cols_out + at, vals_out + at);
      }
      c.rpts[i + 1] = static_cast<Offset>(acc.count());
      acc.reset();
    }
  });

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
    const Offset base = part.flop_prefix[row_begin];
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const auto at = static_cast<std::size_t>(part.flop_prefix[i] - base);
      const auto len =
          static_cast<std::size_t>(c.rpts[i + 1] - c.rpts[i]);
      const auto dst = static_cast<std::size_t>(c.rpts[i]);
      std::copy_n(t_cols[static_cast<std::size_t>(tid)] + at, len,
                  c.cols.data() + dst);
      std::copy_n(t_vals[static_cast<std::size_t>(tid)] + at, len,
                  c.vals.data() + dst);
    }
    mem::pool_free(t_cols[static_cast<std::size_t>(tid)]);
    mem::pool_free(t_vals[static_cast<std::size_t>(tid)]);
  });

  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.rpts[nrows];
    stats->probes = 0;
  }
  c.sortedness = opts.sort_output == SortOutput::kYes
                     ? Sortedness::kSorted
                     : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm
