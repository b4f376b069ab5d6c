// Iterative sorted-row merging SpGEMM (ViennaCL / Gremse et al. style,
// paper §2): each output row starts as nnz(a_i*) scaled sorted copies of
// rows of B and is reduced by repeated pairwise merging — merge sort over
// runs, combining duplicate columns as they meet.  Requires sorted inputs
// and always emits sorted output.
//
// One-phase like Heap SpGEMM: rows are merged in flop-upper-bound staging
// and compacted at the end.  Included as the merge-class baseline of the
// paper's taxonomy and as a second independently-implemented sorted oracle
// for the test suite.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

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
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part = parallel::rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), b.rpts.data(), nthreads);
  if (stats != nullptr) {
    stats->setup_ms = timer.millis();
    stats->flop = part.total_flop();
    stats->symbolic_ms = 0.0;
  }

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  std::vector<std::vector<IT>> t_cols(static_cast<std::size_t>(nthreads));
  std::vector<std::vector<VT>> t_vals(static_cast<std::size_t>(nthreads));

  timer.reset();
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    const std::size_t row_begin =
        part.offsets[static_cast<std::size_t>(tid)];
    const std::size_t row_end =
        part.offsets[static_cast<std::size_t>(tid) + 1];
    const Offset base = part.flop_prefix[row_begin];
    auto& stage_cols = t_cols[static_cast<std::size_t>(tid)];
    auto& stage_vals = t_vals[static_cast<std::size_t>(tid)];
    stage_cols.resize(static_cast<std::size_t>(
        std::max<Offset>(part.flop_prefix[row_end] - base, 1)));
    stage_vals.resize(stage_cols.size());

    // Ping-pong merge buffers sized to the block's largest row flop.
    const auto max_flop =
        static_cast<std::size_t>(part.max_row_flop(tid));
    mem::ThreadScratch<IT> cbuf_a_s, cbuf_b_s;
    mem::ThreadScratch<VT> vbuf_a_s, vbuf_b_s;
    IT* cbuf[2] = {cbuf_a_s.ensure(std::max<std::size_t>(max_flop, 1)),
                   cbuf_b_s.ensure(std::max<std::size_t>(max_flop, 1))};
    VT* vbuf[2] = {vbuf_a_s.ensure(std::max<std::size_t>(max_flop, 1)),
                   vbuf_b_s.ensure(std::max<std::size_t>(max_flop, 1))};
    std::vector<std::size_t> bounds;  // run boundaries into cbuf[cur]

    for (std::size_t i = row_begin; i < row_end; ++i) {
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
      const auto at = static_cast<std::size_t>(part.flop_prefix[i] - base);
      std::copy_n(cbuf[cur], len, stage_cols.data() + at);
      std::copy_n(vbuf[cur], len, stage_vals.data() + at);
      c.rpts[i + 1] = static_cast<Offset>(len);
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
      std::copy_n(t_cols[static_cast<std::size_t>(tid)].data() + at, len,
                  c.cols.data() + c.rpts[i]);
      std::copy_n(t_vals[static_cast<std::size_t>(tid)].data() + at, len,
                  c.vals.data() + c.rpts[i]);
    }
  });

  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.rpts[nrows];
    stats->probes = 0;
  }
  c.sortedness = Sortedness::kSorted;
  return c;
}

}  // namespace spgemm
