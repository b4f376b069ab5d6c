// Heap SpGEMM (paper §4.2.3, after Azad et al. [3]).
//
// One-phase: each output row is produced by an nnz(a_i*)-way merge of the
// corresponding rows of B through a column-indexed min-heap, emitting the
// row already sorted.  The row pass, its staging and the compaction into
// the exact-size CSR are the shared one-phase driver's
// (core/spgemm_onephase.hpp), which also runs the paper's Fig. 9
// scheduling/allocation ablation through opts.schedule.
#pragma once

#include <cstddef>

#include "accumulator/heap.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace spgemm {
namespace detail {

/// Merge one row: returns the number of distinct columns written to
/// out_cols/out_vals (capacity must be >= that count, at most
/// min(flop, b.ncols)).
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
      SR::fold(cur_val, product);
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
  CsrMatrix<IT, VT> c =
      detail::one_phase_product(a, b, opts, stats, [&](Offset /*max_flop*/) {
        return [&a, &b, heap = StreamHeap<IT, VT>{}](
                   std::size_t i, Offset /*flop*/, IT* cols,
                   VT* vals) mutable {
          return detail::heap_merge_row<IT, VT, SR>(a, b, i, heap, cols, vals);
        };
      });
  c.sortedness = Sortedness::kSorted;
  return c;
}

}  // namespace spgemm
