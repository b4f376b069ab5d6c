// One-phase SPA SpGEMM — the MKL-inspector stand-in (see DESIGN.md).
//
// No symbolic phase: rows are accumulated with the dense SPA and staged
// into flop-upper-bound room by the shared one-phase driver
// (core/spgemm_onephase.hpp), then copied out.  Output is unsorted by
// default, matching the paper's Table 1 entry for MKL-inspector (1 phase,
// Any/Unsorted); sorted extraction is available for API uniformity.
// The kAuto of multiply() and multiply_with_epilogue() runs this kernel
// where Table 4 picks Hash and a dense output row fits
// recipe::kDenseRowMaxBytes: the SPA folds each row in Hash's order and
// emits Hash's row order, so the output bytes are Hash's.  A fused
// epilogue (opts.epilogue, from multiply_with_epilogue) runs on each
// emitted row in the driver, so a fused product's bytes are Hash's fused
// bytes too.
#pragma once

#include <cstddef>

#include "accumulator/spa.hpp"
#include "common/types.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> spgemm_spa1p(const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b,
                               const SpGemmOptions& opts = {},
                               SpGemmStats* stats = nullptr) {
  const bool sorted = opts.sort_output == SortOutput::kYes;
  const auto make_row = [&](Offset /*max_flop*/) {
    SpaAccumulator<IT, VT> spa;
    spa.prepare(static_cast<std::size_t>(b.ncols));
    return [&a, &b, sorted, acc = std::move(spa)](
               std::size_t i, Offset /*flop*/, IT* cols, VT* vals) mutable {
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        const VT av = a.vals[static_cast<std::size_t>(j)];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          acc.accumulate(b.cols[static_cast<std::size_t>(l)],
                         av * b.vals[static_cast<std::size_t>(l)]);
        }
      }
      return detail::emit_row(acc, sorted, cols, vals);
    };
  };
  return detail::one_phase_product(a, b, opts, stats, make_row);
}

}  // namespace spgemm
