// Symbolic-only SpGEMM: the structure (per-row nonzero counts / total nnz)
// of A*B without computing any values.
//
// This is the first phase of every two-phase kernel (§2) exposed as a
// stand-alone API, for memory planning ("can I afford this product?"),
// compression-ratio estimation (CR = flop / nnz feeds the Table 4 recipe
// before committing to a kernel), and load-balancing studies.
#pragma once

#include <cstddef>
#include <vector>

#include "accumulator/hash_table.hpp"
#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {

/// Structure summary of a product, from the symbolic phase alone.
struct SymbolicResult {
  Offset flop = 0;     ///< scalar multiplications the numeric phase would do
  Offset nnz = 0;      ///< nonzeros of A*B
  /// Per-row nonzero counts of A*B (size = nrows of A).
  std::vector<Offset> row_nnz;

  [[nodiscard]] double compression_ratio() const {
    return nnz > 0 ? static_cast<double>(flop) / static_cast<double>(nnz)
                   : 0.0;
  }
};

/// Run the hash symbolic phase over A*B.
template <IndexType IT, ValueType VT>
SymbolicResult symbolic_nnz(const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b, int threads = 0) {
  const int nthreads = parallel::resolve_threads(threads);
  parallel::ScopedNumThreads scoped(threads);
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part = parallel::rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), b.rpts.data(), nthreads);

  SymbolicResult out;
  out.flop = part.total_flop();
  out.row_nnz.assign(nrows, 0);

#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    HashAccumulator<IT, VT> acc;
    acc.prepare(hash_table_size_for(part.max_row_flop(tid),
                                    static_cast<std::size_t>(b.ncols)));
    for (std::size_t i = part.offsets[static_cast<std::size_t>(tid)];
         i < part.offsets[static_cast<std::size_t>(tid) + 1]; ++i) {
      for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
        const auto k = static_cast<std::size_t>(
            a.cols[static_cast<std::size_t>(j)]);
        for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
          acc.insert(b.cols[static_cast<std::size_t>(l)]);
        }
      }
      out.row_nnz[i] = static_cast<Offset>(acc.count());
      acc.reset();
    }
  });
  for (const Offset c : out.row_nnz) out.nnz += c;
  return out;
}

}  // namespace spgemm
