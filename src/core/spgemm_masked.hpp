// Masked SpGEMM: C = M .* (A * B) computed without materializing A*B.
//
// The triangle-counting pipeline of §5.6 multiplies L*U only to immediately
// intersect the wedge matrix with the edge mask; masked SpGEMM fuses the
// two steps.  Per output row, the mask row's columns are scattered into a
// dense flag array (thread-private, reset per row) and only products whose
// column carries the flag are accumulated — work drops from O(flop) hash
// traffic to O(flop) flag tests plus O(nnz(M_i*)) accumulator entries.
// This is the "masked" extension discussed as future work in the triangle-
// counting literature the paper builds on (Azad et al. [4]).  Rows run on
// the shared one-phase driver (core/spgemm_onephase.hpp), each bounded by
// its mask row's nnz, so staging stays O(nnz(M)) rather than O(flop).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "accumulator/hash_table.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"

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
  const auto ncols = static_cast<std::size_t>(b.ncols);
  const bool sorted = opts.sort_output == SortOutput::kYes;
  // Per thread: the mask-row flags, cleared once and reset per row, and a
  // hash table sized for the widest mask row the thread sees.
  const auto make_row = [&](Offset max_mask_row) {
    mem::ThreadScratch<std::uint8_t> flags;
    std::fill_n(flags.ensure(ncols), ncols, std::uint8_t{0});
    HashAccumulator<IT, VT> hash;
    hash.prepare(hash_table_size_for(max_mask_row, ncols));
    return [&a, &b, &mask, sorted, flags = std::move(flags),
            acc = std::move(hash)](std::size_t i, Offset /*mask_nnz*/,
                                   IT* out_cols, VT* out_vals) mutable {
      std::uint8_t* in_mask = flags.data();
      // Scatter the mask row.
      for (Offset j = mask.rpts[i]; j < mask.rpts[i + 1]; ++j) {
        in_mask[static_cast<std::size_t>(
            mask.cols[static_cast<std::size_t>(j)])] = 1;
      }
      // Accumulate only in-mask products.
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        const VT av = a.vals[static_cast<std::size_t>(j)];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          const IT col = b.cols[static_cast<std::size_t>(l)];
          if (in_mask[static_cast<std::size_t>(col)] != 0) {
            acc.accumulate(
                col, SR::mul(av, b.vals[static_cast<std::size_t>(l)]),
                [](VT& fold_acc, VT v) { SR::fold(fold_acc, v); });
          }
        }
      }
      const std::size_t count =
          detail::emit_row(acc, sorted, out_cols, out_vals);
      // Un-scatter the mask row.
      for (Offset j = mask.rpts[i]; j < mask.rpts[i + 1]; ++j) {
        in_mask[static_cast<std::size_t>(
            mask.cols[static_cast<std::size_t>(j)])] = 0;
      }
      return count;
    };
  };
  // nnz(C_i*) <= nnz(mask_i*): the mask's row pointers bound the staging.
  return detail::one_phase_product(a, b, opts, stats, make_row,
                                   mask.rpts.data());
}

}  // namespace spgemm
