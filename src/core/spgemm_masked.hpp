// Masked SpGEMM: C = M .* (A * B) computed without materializing A*B.
//
// The triangle-counting pipeline of §5.6 multiplies L*U only to immediately
// intersect the wedge matrix with the edge mask; masked SpGEMM fuses the
// two steps.  Per output row, the mask row's columns are scattered into a
// dense flag array (thread-private, reset per row) and only products whose
// column carries the flag are accumulated — work drops from O(flop) hash
// traffic to O(flop) flag tests plus O(nnz(M_i*)) accumulator entries.
// This is the "masked" extension discussed as future work in the triangle-
// counting literature the paper builds on (Azad et al. [4]).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "accumulator/hash_table.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {

/// C = mask .* (A * B), structure restricted to `mask` (values of mask are
/// ignored).  Output rows are emitted sorted iff requested.
template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> multiply_masked(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, VT>& mask,
                                  const SpGemmOptions& opts = {},
                                  SpGemmStats* stats = nullptr,
                                  SR /*semiring*/ = {}) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("multiply_masked: inner dims disagree");
  }
  if (mask.nrows != a.nrows || mask.ncols != b.ncols) {
    throw std::invalid_argument("multiply_masked: mask shape mismatch");
  }
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part = parallel::rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), b.rpts.data(), nthreads);
  if (stats != nullptr) {
    stats->setup_ms = timer.millis();
    stats->flop = part.total_flop();
    stats->symbolic_ms = 0.0;  // output structure is bounded by the mask
  }

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  // nnz(C_i*) <= nnz(mask_i*): allocate the mask's structure up front and
  // compact after the numeric pass.
  c.cols.resize(static_cast<std::size_t>(mask.nnz()));
  c.vals.resize(static_cast<std::size_t>(mask.nnz()));

  timer.reset();
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    mem::ThreadScratch<std::uint8_t> flags_scratch;
    auto* flags =
        flags_scratch.ensure(static_cast<std::size_t>(b.ncols));
    std::fill(flags, flags + static_cast<std::size_t>(b.ncols),
              std::uint8_t{0});
    HashAccumulator<IT, VT> acc;
    Offset max_mask_row = 0;
    for (std::size_t i = part.offsets[static_cast<std::size_t>(tid)];
         i < part.offsets[static_cast<std::size_t>(tid) + 1]; ++i) {
      max_mask_row = std::max(max_mask_row,
                              mask.rpts[i + 1] - mask.rpts[i]);
    }
    acc.prepare(hash_table_size_for(
        max_mask_row, static_cast<std::size_t>(b.ncols)));

    for (std::size_t i = part.offsets[static_cast<std::size_t>(tid)];
         i < part.offsets[static_cast<std::size_t>(tid) + 1]; ++i) {
      // Scatter the mask row.
      for (Offset j = mask.rpts[i]; j < mask.rpts[i + 1]; ++j) {
        flags[static_cast<std::size_t>(
            mask.cols[static_cast<std::size_t>(j)])] = 1;
      }
      // Accumulate only in-mask products.
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        const VT av = a.vals[static_cast<std::size_t>(j)];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          const IT col = b.cols[static_cast<std::size_t>(l)];
          if (flags[static_cast<std::size_t>(col)] != 0) {
            acc.accumulate(
                col, SR::mul(av, b.vals[static_cast<std::size_t>(l)]),
                [](VT& fold_acc, VT v) { SR::add_into(fold_acc, v); });
          }
        }
      }
      // Emit into the mask-structure slot for this row.
      IT* out_cols = c.cols.data() + mask.rpts[i];
      VT* out_vals = c.vals.data() + mask.rpts[i];
      if (opts.sort_output == SortOutput::kYes) {
        acc.extract_sorted(out_cols, out_vals);
      } else {
        acc.extract_unsorted(out_cols, out_vals);
      }
      c.rpts[i + 1] = static_cast<Offset>(acc.count());
      acc.reset();
      // Un-scatter the mask row.
      for (Offset j = mask.rpts[i]; j < mask.rpts[i + 1]; ++j) {
        flags[static_cast<std::size_t>(
            mask.cols[static_cast<std::size_t>(j)])] = 0;
      }
    }
  });

  // Compact: rows were staged at mask.rpts offsets; squeeze them together.
  std::vector<Offset> staged(c.rpts.begin(), c.rpts.end());
  for (std::size_t i = 0; i < nrows; ++i) c.rpts[i + 1] += c.rpts[i];
  for (std::size_t i = 0; i < nrows; ++i) {
    const auto len = static_cast<std::size_t>(staged[i + 1]);
    const auto src = static_cast<std::size_t>(mask.rpts[i]);
    const auto dst = static_cast<std::size_t>(c.rpts[i]);
    if (src != dst) {
      std::copy_n(c.cols.data() + src, len, c.cols.data() + dst);
      std::copy_n(c.vals.data() + src, len, c.vals.data() + dst);
    }
  }
  c.cols.resize(static_cast<std::size_t>(c.rpts[nrows]));
  c.vals.resize(static_cast<std::size_t>(c.rpts[nrows]));

  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.rpts[nrows];
  }
  c.sortedness = opts.sort_output == SortOutput::kYes
                     ? Sortedness::kSorted
                     : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm
