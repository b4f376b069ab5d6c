// Triangle counting via SpGEMM (paper §5.6, after Azad, Buluç & Gilbert
// [4]).
//
// Pipeline: reorder vertices by increasing degree, split the adjacency
// matrix A = L + U into strict triangles, compute the wedge matrix W = L*U
// (the SpGEMM step the paper benchmarks), then count the wedges that close
// into triangles: with the smallest-labelled vertex as the wedge apex,
// every triangle {i, j, k} (k < j < i) is counted exactly once by
// sum( (L*U) .* L ).
//
// count_triangles() runs that pipeline as written: it materializes W with
// multiply() and sums it under L's mask.  count_triangles_fused() computes
// (L*U) .* L directly with the masked product, which stages at most nnz(L)
// entries instead of nnz(W); the two return equal counts.
#pragma once

#include <cstdint>

#include "core/multiply.hpp"
#include "core/spgemm_masked.hpp"
#include "matrix/ops.hpp"
#include "matrix/triangular.hpp"

namespace spgemm::apps {

template <IndexType IT, ValueType VT>
struct TriangleCountResult {
  std::int64_t triangles = 0;
  SpGemmStats spgemm_stats;   ///< timings of the L*U multiply
  CsrMatrix<IT, VT> wedges;   ///< W = L*U; empty from the fused count
};

/// Fused count: the wedge matrix W = L*U is never materialized.  The masked
/// product (multiply_masked, core/spgemm_masked.hpp) accumulates only the
/// wedges whose column lies in L's row, so each row's staging is bounded by
/// its L row and the pass stages at most nnz(L) entries, which are then
/// summed.  Counts are integer-valued doubles, so the sum is exact and the
/// result matches count_triangles() bit-for-bit.  out.wedges stays empty;
/// out.spgemm_stats are the masked product's (one-phase: no symbolic phase,
/// no tiles, nnz_out = the closed-wedge entries).
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles_fused(
    const CsrMatrix<IT, VT>& a, SpGemmOptions opts = {}) {
  CsrMatrix<IT, VT> pattern = a;
  for (auto& v : pattern.vals) v = VT{1};
  TriangularSplit<IT, VT> split = prepare_triangle_split(pattern);

  TriangleCountResult<IT, VT> out;
  const CsrMatrix<IT, VT> closed_wedges = multiply_masked(
      split.lower, split.upper, split.lower, opts, &out.spgemm_stats);
  double closed = 0.0;
  for (const VT v : closed_wedges.vals) closed += static_cast<double>(v);
  out.triangles = static_cast<std::int64_t>(closed + 0.5);
  return out;
}

/// Count triangles of the undirected graph whose adjacency matrix is `a`
/// (must be structurally symmetric; values are ignored — structure only).
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles(const CsrMatrix<IT, VT>& a,
                                            SpGemmOptions opts = {}) {
  // Binarize so wedge counts are pure path counts.
  CsrMatrix<IT, VT> pattern = a;
  for (auto& v : pattern.vals) v = VT{1};

  TriangularSplit<IT, VT> split = prepare_triangle_split(pattern);

  opts.algorithm =
      recipe::resolve(opts.algorithm, split.lower, split.upper,
                      opts.sort_output, recipe::Operation::kTriangular);
  TriangleCountResult<IT, VT> out;
  out.wedges =
      multiply(split.lower, split.upper, opts, &out.spgemm_stats);
  const double closed = masked_sum(out.wedges, split.lower);
  out.triangles = static_cast<std::int64_t>(closed + 0.5);
  return out;
}

}  // namespace spgemm::apps
