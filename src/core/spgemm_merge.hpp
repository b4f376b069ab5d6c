// Iterative sorted-row merging SpGEMM (ViennaCL / Gremse et al. style,
// paper §2): each output row starts as nnz(a_i*) scaled sorted copies of
// rows of B and is reduced by repeated pairwise merging — merge sort over
// runs, combining duplicate columns as they meet.  Requires sorted inputs
// and always emits sorted output.
//
// One-phase like Heap SpGEMM: rows are merged into flop-upper-bound staging
// and compacted at the end by the shared one-phase driver
// (core/spgemm_onephase.hpp).  Included as the merge-class baseline of the
// paper's taxonomy and as a second independently-implemented sorted oracle
// for the test suite.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"

namespace spgemm {
namespace detail {

/// Merge two sorted (col,val) runs, summing duplicates.  Returns the merged
/// length written to out.
template <IndexType IT, ValueType VT>
std::size_t merge_runs(const IT* ca, const VT* va, std::size_t na,
                       const IT* cb, const VT* vb, std::size_t nb,
                       IT* co, VT* vo) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t o = 0;
  while (i < na && j < nb) {
    if (ca[i] < cb[j]) {
      co[o] = ca[i];
      vo[o] = va[i];
      ++i;
    } else if (cb[j] < ca[i]) {
      co[o] = cb[j];
      vo[o] = vb[j];
      ++j;
    } else {
      co[o] = ca[i];
      vo[o] = va[i] + vb[j];
      ++i;
      ++j;
    }
    ++o;
  }
  while (i < na) {
    co[o] = ca[i];
    vo[o] = va[i];
    ++i;
    ++o;
  }
  while (j < nb) {
    co[o] = cb[j];
    vo[o] = vb[j];
    ++j;
    ++o;
  }
  return o;
}

}  // namespace detail

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> spgemm_merge(const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b,
                               const SpGemmOptions& opts = {},
                               SpGemmStats* stats = nullptr) {
  // Per thread: ping-pong run buffers sized to the largest row flop the
  // thread merges, and the run boundaries into the current buffer.
  const auto make_row = [&](Offset max_flop) {
    return [&a, &b,
            cap = std::max<std::size_t>(static_cast<std::size_t>(max_flop), 1),
            cols = std::array<mem::ThreadScratch<IT>, 2>{},
            vals = std::array<mem::ThreadScratch<VT>, 2>{},
            bounds = std::vector<std::size_t>{}](
               std::size_t i, Offset /*flop*/, IT* out_cols,
               VT* out_vals) mutable {
      IT* cbuf[2] = {cols[0].ensure(cap), cols[1].ensure(cap)};
      VT* vbuf[2] = {vals[0].ensure(cap), vals[1].ensure(cap)};
      // Load the scaled rows of B as initial sorted runs.
      bounds.clear();
      bounds.push_back(0);
      std::size_t fill = 0;
      int cur = 0;
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        const VT av = a.vals[static_cast<std::size_t>(j)];
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          cbuf[cur][fill] = b.cols[static_cast<std::size_t>(l)];
          vbuf[cur][fill] = av * b.vals[static_cast<std::size_t>(l)];
          ++fill;
        }
        if (bounds.back() != fill) bounds.push_back(fill);
      }

      // Pairwise merge passes until a single run remains.
      while (bounds.size() > 2) {
        const int nxt = 1 - cur;
        std::size_t out = 0;
        std::vector<std::size_t> next_bounds{0};
        for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
          if (r + 2 < bounds.size()) {
            out += detail::merge_runs(
                cbuf[cur] + bounds[r], vbuf[cur] + bounds[r],
                bounds[r + 1] - bounds[r], cbuf[cur] + bounds[r + 1],
                vbuf[cur] + bounds[r + 1], bounds[r + 2] - bounds[r + 1],
                cbuf[nxt] + out, vbuf[nxt] + out);
          } else {
            // Odd run out: copy through.
            const std::size_t len = bounds[r + 1] - bounds[r];
            std::copy_n(cbuf[cur] + bounds[r], len, cbuf[nxt] + out);
            std::copy_n(vbuf[cur] + bounds[r], len, vbuf[nxt] + out);
            out += len;
          }
          next_bounds.push_back(out);
        }
        bounds = std::move(next_bounds);
        cur = nxt;
      }

      const std::size_t len = bounds.size() == 2 ? bounds[1] : 0;
      std::copy_n(cbuf[cur], len, out_cols);
      std::copy_n(vbuf[cur], len, out_vals);
      return len;
    };
  };
  CsrMatrix<IT, VT> c = detail::one_phase_product(a, b, opts, stats, make_row);
  c.sortedness = Sortedness::kSorted;
  return c;
}

}  // namespace spgemm
