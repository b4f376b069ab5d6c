// Flop-balanced static row partitioning — the paper's RowsToThreads (Fig. 6).
//
// Per-row flops are counted in parallel from the CSR structure of A and B,
// prefix-summed, and thread boundaries found by binary search so each thread
// receives an (approximately) equal share of scalar multiplications rather
// than an equal share of rows.  This is the light-weight load balancer the
// paper uses instead of OpenMP dynamic/guided scheduling (§4.1).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "parallel/lowbnd.hpp"
#include "parallel/prefix_sum.hpp"

namespace spgemm::parallel {

/// Exclusive prefix over the per-row flops of C = A*B from raw CSR
/// structure arrays: flop of row i = sum over nonzeros a_ik of nnz(b_k*).
/// Size nrows_a + 1; back() = total flop.  `rpts_b` only needs to be a
/// monotone prefix of B's row weights, so a flop prefix of A*P serves as
/// the "row pointers" of an on-demand A*P (multiply_rap).
template <IndexType IT>
std::vector<Offset> flop_prefix(std::size_t nrows_a, const Offset* rpts_a,
                                const IT* cols_a, const Offset* rpts_b) {
  std::vector<Offset> prefix(nrows_a + 1);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < nrows_a; ++i) {
    Offset acc = 0;
    for (Offset j = rpts_a[i]; j < rpts_a[i + 1]; ++j) {
      const auto k = static_cast<std::size_t>(cols_a[j]);
      acc += rpts_b[k + 1] - rpts_b[k];
    }
    prefix[i] = acc;
  }
  prefix[nrows_a] = 0;
  exclusive_scan_inplace(prefix.data(), nrows_a + 1);
  return prefix;
}

/// Result of RowsToThreads: row ranges plus the flop prefix array, which the
/// two-phase kernels reuse for hash-table sizing (max flop per row).
struct RowPartition {
  /// offsets[t]..offsets[t+1] is the row range of thread t; size nthreads+1.
  std::vector<std::size_t> offsets;
  /// Exclusive prefix over per-row flops; size nrows+1; back() = total flop.
  std::vector<Offset> flop_prefix;

  [[nodiscard]] int threads() const {
    return static_cast<int>(offsets.size()) - 1;
  }
  [[nodiscard]] Offset total_flop() const { return flop_prefix.back(); }

  /// Max per-row flop within thread t's range (hash-table sizing input).
  [[nodiscard]] Offset max_row_flop(int t) const {
    Offset best = 0;
    for (std::size_t i = offsets[static_cast<std::size_t>(t)];
         i < offsets[static_cast<std::size_t>(t) + 1]; ++i) {
      const Offset f = flop_prefix[i + 1] - flop_prefix[i];
      if (f > best) best = f;
    }
    return best;
  }
};

/// Flop-balanced owner split over an exclusive per-row flop prefix (size
/// nrows+1): the boundary of thread t is the first row whose prefix reaches
/// t/nthreads of the total (paper Fig. 6, lines 9-13).  The one flop-
/// balanced row split: rows_to_threads() and the RAP product's R*(A*P)
/// prefix both cut here.
inline RowPartition partition_from_prefix(std::vector<Offset> flop_prefix,
                                          int nthreads) {
  RowPartition part;
  part.flop_prefix = std::move(flop_prefix);
  const std::size_t nrows = part.flop_prefix.size() - 1;
  const double ave = static_cast<double>(part.flop_prefix[nrows]) /
                     static_cast<double>(nthreads);
  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  for (int t = 1; t < nthreads; ++t) {
    const auto target = static_cast<Offset>(ave * t);
    part.offsets[static_cast<std::size_t>(t)] = std::min(
        nrows, lowbnd(part.flop_prefix.data(), nrows + 1, target));
  }
  part.offsets[static_cast<std::size_t>(nthreads)] = nrows;
  return part;
}

/// Build a flop-balanced partition of `nrows_a` rows across `nthreads`.
/// Implements paper Fig. 6 verbatim: count flops, prefix-sum, lowbnd.
template <IndexType IT>
RowPartition rows_to_threads(std::size_t nrows_a, const Offset* rpts_a,
                             const IT* cols_a, const Offset* rpts_b,
                             int nthreads) {
  return partition_from_prefix(
      flop_prefix(nrows_a, rpts_a, cols_a, rpts_b), nthreads);
}

/// Equal-rows partition (the naive static split the paper's Fig. 9 ablates
/// against).  Still computes the flop prefix: kernels need it for
/// accumulator sizing regardless of how rows are assigned.
template <IndexType IT>
RowPartition rows_equal(std::size_t nrows_a, const Offset* rpts_a,
                        const IT* cols_a, const Offset* rpts_b,
                        int nthreads) {
  RowPartition part;
  part.flop_prefix = flop_prefix(nrows_a, rpts_a, cols_a, rpts_b);
  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  const std::size_t chunk =
      (nrows_a + static_cast<std::size_t>(nthreads) - 1) /
      static_cast<std::size_t>(nthreads);
  for (int t = 0; t <= nthreads; ++t) {
    part.offsets[static_cast<std::size_t>(t)] =
        std::min(nrows_a, chunk * static_cast<std::size_t>(t));
  }
  return part;
}

}  // namespace spgemm::parallel
