// IKJ SpGEMM — Sulatycke & Ghose [31], the first shared-memory parallel
// SpGEMM (paper §2).
//
// For every row i, the k loop walks ALL n candidate columns of A (testing a
// dense presence array scattered from a_i*), and the output row is extracted
// by scanning the full dense accumulator, giving the characteristic
// O(n^2 + flop) work bound.  Only competitive when flop >= n^2; kept as a
// faithful historical baseline for tests and ablation on small inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "parallel/omp_utils.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> spgemm_ikj(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const SpGemmOptions& opts = {},
                             SpGemmStats* stats = nullptr) {
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);
  Timer timer;

  const auto nrows = static_cast<std::size_t>(a.nrows);
  const auto kdim = static_cast<std::size_t>(a.ncols);
  const auto ncols = static_cast<std::size_t>(b.ncols);

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  std::vector<std::vector<IT>> t_cols(static_cast<std::size_t>(nthreads));
  std::vector<std::vector<VT>> t_vals(static_cast<std::size_t>(nthreads));
  std::vector<std::size_t> row_of_thread_start(
      static_cast<std::size_t>(nthreads) + 1, nrows);

  Offset flop = 0;
#pragma omp parallel num_threads(nthreads) reduction(+ : flop)
  parallel::for_each_owner(nthreads, [&](int tid) {
    const std::size_t chunk =
        (nrows + static_cast<std::size_t>(nthreads) - 1) /
        static_cast<std::size_t>(nthreads);
    const std::size_t row_begin =
        std::min(nrows, chunk * static_cast<std::size_t>(tid));
    const std::size_t row_end = std::min(nrows, row_begin + chunk);
    row_of_thread_start[static_cast<std::size_t>(tid)] = row_begin;

    std::vector<VT> scale(kdim, VT{0});
    std::vector<std::uint8_t> present(kdim, 0);
    std::vector<VT> accum(ncols, VT{0});
    std::vector<std::uint8_t> occupied(ncols, 0);
    auto& out_cols = t_cols[static_cast<std::size_t>(tid)];
    auto& out_vals = t_vals[static_cast<std::size_t>(tid)];

    for (std::size_t i = row_begin; i < row_end; ++i) {
      // Scatter row a_i*.
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        scale[k] = a.vals[static_cast<std::size_t>(j)];
        present[k] = 1;
      }
      // The IKJ signature: k sweeps the full inner dimension.
      for (std::size_t k = 0; k < kdim; ++k) {
        if (present[k] == 0) continue;
        const VT av = scale[k];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          const auto col = static_cast<std::size_t>(
              b.cols[static_cast<std::size_t>(l)]);
          accum[col] += av * b.vals[static_cast<std::size_t>(l)];
          occupied[col] = 1;
          ++flop;
        }
      }
      // Extraction scans the whole dense accumulator (the second n term).
      Offset count = 0;
      for (std::size_t col = 0; col < ncols; ++col) {
        if (occupied[col] != 0) {
          out_cols.push_back(static_cast<IT>(col));
          out_vals.push_back(accum[col]);
          accum[col] = VT{0};
          occupied[col] = 0;
          ++count;
        }
      }
      c.rpts[i + 1] = count;
      // Un-scatter row a_i*.
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        scale[k] = VT{0};
        present[k] = 0;
      }
    }
  });

  for (std::size_t i = 0; i < nrows; ++i) c.rpts[i + 1] += c.rpts[i];
  c.cols.resize(static_cast<std::size_t>(c.rpts[nrows]));
  c.vals.resize(static_cast<std::size_t>(c.rpts[nrows]));
  for (int t = 0; t < nthreads; ++t) {
    const std::size_t first_row = row_of_thread_start[static_cast<std::size_t>(t)];
    if (first_row >= nrows) continue;
    const auto dst = static_cast<std::size_t>(c.rpts[first_row]);
    std::copy(t_cols[static_cast<std::size_t>(t)].begin(),
              t_cols[static_cast<std::size_t>(t)].end(),
              c.cols.begin() + static_cast<Offset>(dst));
    std::copy(t_vals[static_cast<std::size_t>(t)].begin(),
              t_vals[static_cast<std::size_t>(t)].end(),
              c.vals.begin() + static_cast<Offset>(dst));
  }

  if (stats != nullptr) {
    stats->setup_ms = 0.0;
    stats->symbolic_ms = 0.0;
    stats->numeric_ms = timer.millis();
    stats->flop = flop;
    stats->nnz_out = c.rpts[nrows];
  }
  c.sortedness = Sortedness::kSorted;  // ascending dense scan
  return c;
}

}  // namespace spgemm
