// multiply(): the public one-shot SpGEMM entry point.
//
// Dispatches to the requested kernel and enforces input-sortedness
// preconditions.  kAuto resolves through recipe::resolve: the Table 4 pick,
// except that a Hash pick becomes the one-phase SPA (kSpa1p) when a dense
// output row, b.ncols values, fits recipe::kDenseRowMaxBytes (256 KiB, an
// L2-resident row).  That SPA folds in Hash's order and emits Hash's rows,
// sorted or in first-occurrence order, so the rule changes time, not bytes.
// multiply() and multiply_with_epilogue() take the rule; the fused one runs
// its epilogue in the one-phase driver, so its bytes stay Hash's fused
// bytes.  multiply_over, SpGemmHandle and multiply_rap cannot run SPA-1p
// and keep Hash.  A fused epilogue (opts.epilogue) runs only through
// multiply_with_epilogue (and the handle and engine): multiply(),
// multiply_over() and multiply_rap() throw std::invalid_argument on one,
// since only some of their kernels could honour it.
//
// Every TWO-PHASE kernel (hash, hashvec, SPA, kkhash, adaptive) is one
// accumulator policy (core/spgemm_policies.hpp) and has no entry point of
// its own: multiply(), multiply_over() and multiply_with_epilogue() pick
// the policy through with_plan_policy() and run the row pipeline's one-shot
// pass (KernelPlan::multiply_once in core/spgemm_twophase.hpp): symbolic
// and numeric execute back to back per tile of the ExecutionSchedule, while
// the A/B rows and accumulator state are still cache-hot — the right shape
// for a product that is computed exactly once.  Repeated products should
// plan a SpGemmHandle instead; it runs the same row loops, kernel policies
// and schedule cuts, so their outputs are bit-identical.  One-phase kernels
// (heap, merge, ikj, spa1p) run the one-phase driver
// (core/spgemm_onephase.hpp); the reference oracle stays serial.
#pragma once

#include <stdexcept>

#include "core/recipe.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_heap.hpp"
#include "core/spgemm_ikj.hpp"
#include "core/spgemm_merge.hpp"
#include "core/spgemm_options.hpp"
#include "core/spgemm_policies.hpp"
#include "core/spgemm_ref.hpp"
#include "core/spgemm_spa1p.hpp"
#include "core/spgemm_twophase.hpp"

namespace spgemm {
namespace detail {

/// Kernels whose accumulators fold values through the semiring policy.
constexpr bool supports_semiring(Algorithm algo) {
  return algo == Algorithm::kHeap || is_two_phase(algo);
}

/// Kernels that run a fused row epilogue: the two-phase row pipeline and
/// the one-phase SPA.
constexpr bool runs_epilogue(Algorithm algo) {
  return algo == Algorithm::kSpa1p || is_two_phase(algo);
}

/// One-shot multiply for any two-phase kernel: the row pipeline with the
/// kernel's planning policy (with_plan_policy — the same mapping
/// SpGemmHandle plans with).  The adaptive kernel flows through it via its
/// dual accumulator.
template <typename SR, IndexType IT, ValueType VT>
CsrMatrix<IT, VT> multiply_fused(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const SpGemmOptions& opts,
                                 SpGemmStats* stats) {
  return with_plan_policy<IT, VT>(
      opts.algorithm, opts.probe, b.ncols, [&](auto policy) {
        return spgemm_two_phase<IT, VT>(a, b, opts, std::move(policy), stats,
                                        SR{});
      });
}

}  // namespace detail

/// SpGEMM over an arbitrary semiring (core/semiring.hpp).  Supported by the
/// hash-family, SPA, adaptive and heap kernels — the ones whose accumulators
/// fold values; the remaining baselines are (+,*)-only and throw.
template <typename SR, IndexType IT, ValueType VT>
  requires SemiringFor<SR, VT>
CsrMatrix<IT, VT> multiply_over(const CsrMatrix<IT, VT>& a,
                                const CsrMatrix<IT, VT>& b,
                                SpGemmOptions opts = {},
                                SpGemmStats* stats = nullptr) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("multiply_over: inner dimensions disagree");
  }
  detail::reject_epilogue(opts, "multiply_over");
  // Same recipe as multiply(); kernels that cannot fold through a custom
  // semiring (merge, ikj, spa1p, reference) fall back to Hash.
  opts.algorithm =
      recipe::resolve(opts.algorithm, a, b, opts.sort_output,
                      recipe::Operation::kSquare, detail::supports_semiring);
  if (requires_sorted_input(opts.algorithm) &&
      (!a.claims_sorted() || !b.claims_sorted())) {
    throw std::invalid_argument(
        "multiply_over: kernel requires sorted inputs");
  }
  if (is_two_phase(opts.algorithm)) {
    return detail::multiply_fused<SR>(a, b, opts, stats);
  }
  if (opts.algorithm == Algorithm::kHeap) {
    return spgemm_heap(a, b, opts, stats, SR{});
  }
  throw std::invalid_argument(
      "multiply_over: kernel does not support custom semirings");
}

/// One-shot SpGEMM with a fused per-row epilogue (opts.epilogue): the
/// epilogue runs on each output row inside the numeric row loop, while the
/// row is cache-hot, and only the kept entries are ever staged — the full
/// intermediate never materializes.  Two-phase kernels and SPA-1p only;
/// kAuto resolves as multiply()'s does (SPA-1p when a dense output row fits
/// recipe::kDenseRowMaxBytes), falling back to kHash.  Triple products
/// R*(A*P) go through multiply_rap() (core/spgemm_rap.hpp) instead.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> multiply_with_epilogue(const CsrMatrix<IT, VT>& a,
                                         const CsrMatrix<IT, VT>& b,
                                         SpGemmOptions opts,
                                         SpGemmStats* stats = nullptr) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument(
        "multiply_with_epilogue: inner dimensions disagree");
  }
  opts.algorithm =
      recipe::resolve(opts.algorithm, a, b, opts.sort_output,
                      recipe::Operation::kSquare, detail::runs_epilogue);
  if (!detail::runs_epilogue(opts.algorithm)) {
    throw std::invalid_argument(
        "multiply_with_epilogue: fused epilogues need a two-phase kernel or "
        "kSpa1p");
  }
  if (opts.algorithm == Algorithm::kSpa1p) {
    return spgemm_spa1p(a, b, opts, stats);
  }
  return detail::multiply_fused<PlusTimes>(a, b, opts, stats);
}

template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                           const CsrMatrix<IT, VT>& b,
                           SpGemmOptions opts = {},
                           SpGemmStats* stats = nullptr) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("multiply: inner dimensions disagree");
  }
  detail::reject_epilogue(opts, "multiply");

  opts.algorithm = recipe::resolve(opts.algorithm, a, b, opts.sort_output);
  if (requires_sorted_input(opts.algorithm) && !a.claims_sorted()) {
    throw std::invalid_argument(
        "multiply: kernel requires sorted inputs but A is unsorted");
  }
  if (requires_sorted_input(opts.algorithm) && !b.claims_sorted()) {
    throw std::invalid_argument(
        "multiply: kernel requires sorted inputs but B is unsorted");
  }

  if (is_two_phase(opts.algorithm)) {
    return detail::multiply_fused<PlusTimes>(a, b, opts, stats);
  }
  switch (opts.algorithm) {
    case Algorithm::kHeap:
      return spgemm_heap(a, b, opts, stats);
    case Algorithm::kSpa1p:
      return spgemm_spa1p(a, b, opts, stats);
    case Algorithm::kMerge:
      return spgemm_merge(a, b, opts, stats);
    case Algorithm::kIkj:
      return spgemm_ikj(a, b, opts, stats);
    case Algorithm::kReference: {
      CsrMatrix<IT, VT> c = spgemm_reference(a, b);
      if (stats != nullptr) {
        stats->nnz_out = c.nnz();
        stats->flop = count_flops(a, b);
      }
      return c;
    }
    default:
      break;
  }
  throw std::logic_error("multiply: unhandled algorithm");
}

}  // namespace spgemm
