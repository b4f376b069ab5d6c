// Triangle counting via SpGEMM (paper §5.6, after Azad, Buluç & Gilbert
// [4]).
//
// Pipeline: reorder vertices by increasing degree, split the adjacency
// matrix A = L + U into strict triangles, compute the wedge matrix W = L*U
// (the SpGEMM step the paper benchmarks), then count the wedges that close
// into triangles: with the smallest-labelled vertex as the wedge apex,
// every triangle {i, j, k} (k < j < i) is counted exactly once by
// sum( (L*U) .* L ).
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
  CsrMatrix<IT, VT> wedges;   ///< W = L*U (kept for inspection/tests)
};

/// Masked variant: fuses the L*U product with the edge-mask intersection
/// via multiply_masked(), never materializing the wedge matrix.  Returns
/// the same count as count_triangles() with wedges restricted to L's
/// structure (out.wedges holds the masked product).
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles_masked(
    const CsrMatrix<IT, VT>& a, SpGemmOptions opts = {}) {
  CsrMatrix<IT, VT> pattern = a;
  for (auto& v : pattern.vals) v = VT{1};
  TriangularSplit<IT, VT> split = prepare_triangle_split(pattern);
  if (opts.algorithm == Algorithm::kAuto) opts.algorithm = Algorithm::kHash;

  TriangleCountResult<IT, VT> out;
  out.wedges = multiply_masked(split.lower, split.upper, split.lower, opts,
                               &out.spgemm_stats);
  double closed = 0.0;
  for (const VT v : out.wedges.vals) closed += static_cast<double>(v);
  out.triangles = static_cast<std::int64_t>(closed + 0.5);
  return out;
}

/// Fused-epilogue variant: the wedge matrix W = L*U is never materialized.
/// A kMaskReduce epilogue intersects each W row with L's row and folds the
/// surviving wedge counts into a scalar while the row is still in the
/// accumulator's staging buffer — zero entries are kept, so the pipeline's
/// peak memory is the inputs plus thread scratch.  Counts are integer-valued
/// doubles, so the per-thread fold is exact and the result matches
/// count_triangles() bit-for-bit.  out.wedges stays empty.
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles_fused(
    const CsrMatrix<IT, VT>& a, SpGemmOptions opts = {}) {
  CsrMatrix<IT, VT> pattern = a;
  for (auto& v : pattern.vals) v = VT{1};
  TriangularSplit<IT, VT> split = prepare_triangle_split(pattern);

  opts.algorithm =
      recipe::resolve(opts.algorithm, split.lower, split.upper,
                      opts.sort_output, recipe::Operation::kTriangular,
                      is_two_phase);
  opts.epilogue.kind = EpilogueKind::kMaskReduce;

  TriangleCountResult<IT, VT> out;
  EpilogueResult closed;
  multiply_with_epilogue(split.lower, split.upper, opts, &closed,
                         &split.lower, &out.spgemm_stats);
  out.triangles = static_cast<std::int64_t>(closed.reduce + 0.5);
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
