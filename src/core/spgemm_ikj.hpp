// IKJ SpGEMM — Sulatycke & Ghose [31], the first shared-memory parallel
// SpGEMM (paper §2).
//
// For every row i, the k loop walks ALL n candidate columns of A (testing a
// dense presence array scattered from a_i*), and the output row is extracted
// by scanning the full dense accumulator, giving the characteristic
// O(n^2 + flop) work bound.  Only competitive when flop >= n^2; kept as a
// faithful historical baseline for tests and ablation on small inputs.  The
// rows run on the shared one-phase driver (core/spgemm_onephase.hpp), so
// they are flop-balanced by default like every one-phase kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> spgemm_ikj(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const SpGemmOptions& opts = {},
                             SpGemmStats* stats = nullptr) {
  const auto kdim = static_cast<std::size_t>(a.ncols);
  const auto ncols = static_cast<std::size_t>(b.ncols);
  const auto make_row = [&](Offset /*max_flop*/) {
    return [&a, &b, kdim, ncols, scale = std::vector<VT>(kdim, VT{0}),
            present = std::vector<std::uint8_t>(kdim, 0),
            accum = std::vector<VT>(ncols, VT{0}),
            occupied = std::vector<std::uint8_t>(ncols, 0)](
               std::size_t i, Offset /*flop*/, IT* out_cols,
               VT* out_vals) mutable {
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
        }
      }
      // Extraction scans the whole dense accumulator (the second n term).
      std::size_t count = 0;
      for (std::size_t col = 0; col < ncols; ++col) {
        if (occupied[col] != 0) {
          out_cols[count] = static_cast<IT>(col);
          out_vals[count] = accum[col];
          accum[col] = VT{0};
          occupied[col] = 0;
          ++count;
        }
      }
      // Un-scatter row a_i*.
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        scale[k] = VT{0};
        present[k] = 0;
      }
      return count;
    };
  };
  CsrMatrix<IT, VT> c = detail::one_phase_product(a, b, opts, stats, make_row);
  c.sortedness = Sortedness::kSorted;  // ascending dense scan
  return c;
}

}  // namespace spgemm
