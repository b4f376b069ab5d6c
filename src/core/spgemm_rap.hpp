// Fused triple product R*(A*P).
//
// AMG's Galerkin coarsening pays for A*P twice: once to materialize it, once
// to stream it back through the R* product.  multiply_rap() computes each
// A*P row on demand INSIDE the R* pass instead: for coarse row i, every
// fine row k named by R_i is expanded through an inner accumulator (the
// classic Gustavson probe of core/spgemm_twophase.hpp), extracted sorted
// while cache-hot, and folded straight into the outer accumulator scaled by
// r_ik.  The intermediate A*P CSR is never assembled — its nnz(AP) entries
// exist one row at a time in thread-local scratch.  It is a call of its
// own, not an epilogue kind: multiply_with_epilogue and the engine take
// pairwise products only.  Its coarse rows count in
// spgemm_epilogue_rows_total{kind="rap"}.
//
// Bit-identity contract: the inner probe folds A_k x P contributions in
// exactly the traversal order of the two-step product's numeric pass, and
// the sorted extraction matches the two-step intermediate's storage order
// (sort_output = kYes), so for visit-order kernels the fused RAP is
// bit-identical to multiply(r, multiply(a, p)) with a sorted intermediate.
//
// Cost shape: rows of A*P shared by several coarse rows are re-expanded per
// consumer.  With an aggregation prolongator every fine row feeds exactly
// one coarse row (R's columns partition the fine rows), so nothing is
// recomputed and the fused pass does strictly less memory traffic.
//
// Scheduling: the coarse rows run on the row pipeline's PlanCore — a flop-
// balanced owner split of the R*(A*P) flop prefix (parallel::
// partition_from_prefix), each owner's range cut into tiles by the
// ExecutionSchedule, so the tile options apply.  Each owner stages its rows
// at a running cursor, one block in row order, which the pipeline's
// place_output() copies out (or adopts, on one owner).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_handle.hpp"  // is_two_phase
#include "core/spgemm_options.hpp"
#include "core/spgemm_policies.hpp"
#include "core/spgemm_twophase.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"
#include "model/cost_model.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"
#include "telemetry/span.hpp"

namespace spgemm {

/// Fused Galerkin triple product C = R * (A * P) without materializing the
/// intermediate.  Two-phase kernels only (kAuto resolves to kHash); the
/// output honours opts.sort_output, the per-row A*P expansions are always
/// extracted sorted (matching the two-step pipeline's sorted intermediate).
/// An opts.epilogue is rejected with std::invalid_argument.
template <IndexType IT, ValueType VT, typename SR = PlusTimes>
  requires SemiringFor<SR, VT>
CsrMatrix<IT, VT> multiply_rap(const CsrMatrix<IT, VT>& r,
                               const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& p,
                               SpGemmOptions opts = {},
                               SpGemmStats* stats = nullptr, SR /*sr*/ = {}) {
  if (r.ncols != a.nrows || a.ncols != p.nrows) {
    throw std::invalid_argument("multiply_rap: dimensions disagree");
  }
  detail::reject_epilogue(opts, "multiply_rap");
  TELEM_SPAN("rap.multiply");
  if (opts.algorithm == Algorithm::kAuto) opts.algorithm = Algorithm::kHash;
  if (!is_two_phase(opts.algorithm)) {
    throw std::invalid_argument(
        "multiply_rap: two-phase kernels only (hash/hashvec/spa/kkhash/"
        "adaptive)");
  }
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nf = static_cast<std::size_t>(a.nrows);   // fine rows
  const auto nc = static_cast<std::size_t>(r.nrows);   // coarse rows

  // The flop prefix of the on-demand A*P rows doubles as their "row
  // pointers" when counting the R*(A*P) flop of each coarse row, which
  // drives accumulator sizing and the balanced owner split.
  const std::vector<Offset> ap_prefix = parallel::flop_prefix(
      nf, a.rpts.data(), a.cols.data(), p.rpts.data());
  std::vector<Offset> prefix = parallel::flop_prefix(
      nc, r.rpts.data(), r.cols.data(), ap_prefix.data());
  Offset max_flop_ap = 0;
  for (std::size_t k = 0; k < nf; ++k) {
    max_flop_ap = std::max(max_flop_ap, ap_prefix[k + 1] - ap_prefix[k]);
  }
  detail::PlanCore<IT, VT> core;
  core.configure(parallel::partition_from_prefix(std::move(prefix), nthreads),
                 p.ncols, opts, model::kDefaultReuseBudgetBytes);
  if (stats != nullptr) {
    *stats = SpGemmStats{};
    stats->setup_ms = timer.millis();
    stats->flop = core.part.total_flop();
  }

  CsrMatrix<IT, VT> c(r.nrows, p.ncols);
  timer.reset();
  std::uint64_t tiles = 0;
  detail::with_plan_policy<IT, VT>(
      opts.algorithm, opts.probe, p.ncols, [&](auto policy) {
        detail::KernelPlan<IT, VT, decltype(policy)> plan(policy);
        plan.ensure_threads(core.nthreads);
        plan.run_owners(core, [&](auto& tp, int owner) {
          auto inner = policy.make();
          auto outer = policy.make();
          policy.prepare(inner, max_flop_ap, p.ncols);
          policy.prepare(outer, core.schedule.sizing_max_row_flop(owner),
                         p.ncols);
          mem::ThreadScratch<IT> ap_cols;
          mem::ThreadScratch<VT> ap_vals;
          IT* apc = ap_cols.ensure(static_cast<std::size_t>(max_flop_ap) + 1);
          VT* apv = ap_vals.ensure(static_cast<std::size_t>(max_flop_ap) + 1);
          core.schedule.for_each_tile(owner, [&](const auto& tile) {
            ++tp.tally.tiles;
            for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
              const bool force_sorted =
                  policy.begin_row(outer, core.row_flop(i));
              const bool sorted =
                  opts.sort_output == SortOutput::kYes || force_sorted;
              for (Offset j = r.rpts[i]; j < r.rpts[i + 1]; ++j) {
                const auto k = static_cast<std::size_t>(
                    r.cols[static_cast<std::size_t>(j)]);
                const VT rv = r.vals[static_cast<std::size_t>(j)];
                const Offset flop_ap = ap_prefix[k + 1] - ap_prefix[k];
                if (flop_ap == 0) continue;
                // Expand A*P row k while R's row is hot, sorted extraction
                // to match the two-step intermediate's storage order.
                policy.begin_row(inner, flop_ap);
                detail::probe_row<SR>(inner, a, p, k);
                const std::size_t apn = inner.count();
                inner.extract_sorted(apc, apv);
                inner.reset();
                for (std::size_t t = 0; t < apn; ++t) {
                  outer.accumulate(apc[t], SR::mul(rv, apv[t]),
                                   [](VT& fold_acc, VT v) {
                                     SR::fold(fold_acc, v);
                                   });
                }
              }
              const std::size_t nnz = outer.count();
              const std::size_t stage = tp.out_cols.size();
              tp.out_cols.resize(stage + nnz);
              tp.out_vals.resize(stage + nnz);
              if (sorted) {
                outer.extract_sorted(tp.out_cols.data() + stage,
                                     tp.out_vals.data() + stage);
              } else {
                outer.extract_unsorted(tp.out_cols.data() + stage,
                                       tp.out_vals.data() + stage);
              }
              outer.reset();
              c.rpts[i] = static_cast<Offset>(nnz);
            }
          });
        });
        plan.place_output(core, c, /*adopt=*/true);
        tiles = plan.tally().tiles;
      });

  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.rpts[nc];
    stats->epilogue_rows = nc;
    stats->tile_count = tiles;
  }
  if (telemetry::enabled()) {
    detail::EpilogueTelemetry::get().rap_rows.add(nc);
  }
  c.sortedness = opts.sort_output == SortOutput::kYes ? Sortedness::kSorted
                                                      : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm
