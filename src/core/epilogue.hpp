// Fused row epilogues, shared by both SpGEMM drivers.
//
// The epilogue hook runs over each output row right after the row is
// computed, while the row (and the A/B rows that produced it) are still
// cache-hot.  Structural epilogues (kPruneScale, kMaskReduce) compact or
// consume the row in place, so the full intermediate product is never
// materialized — its allocation vanishes from peak RSS.  The spec
// (EpilogueSpec) rides in SpGemmOptions; the typed operands ride here.
//
// The two-phase row pipeline (core/spgemm_twophase.hpp: one-shot, handle
// execute) and the one-phase driver (core/spgemm_onephase.hpp: SPA-1p)
// both call apply_row_epilogue() per row with one EpilogueState per owner,
// and fold the owners' partials with fold_epilogue(), so a row gets the same
// kept entries whichever driver computed it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace spgemm::detail {

/// Typed companions of the untemplated EpilogueSpec: the mask operand of
/// kMaskReduce and the caller's result sink.
template <IndexType IT, ValueType VT>
struct EpilogueContext {
  const CsrMatrix<IT, VT>* mask = nullptr;  ///< kMaskReduce: mask matrix
  EpilogueResult* result = nullptr;         ///< optional scalar-output sink
};

/// The kPruneScale keep rule, and the prune path's one pow() per entry: v
/// survives iff pow(v, inflation) >= prune_below, thresholded in double and
/// only then narrowed to the value type.  The fused epilogue
/// (apply_row_epilogue) and apps::detail::inflate_and_prune both call it,
/// so fused and unfused outputs agree by construction, float included.
///
/// Most entries of an MCL expansion are pruned, and a pow() with a runtime
/// exponent costs far more than a compare, so entries in [0, cut) are
/// dropped without it.  cut = pow(prune_below, 1/inflation) * (1 - 2^-30)
/// is exact for a finite inflation >= 1 and a finite prune_below >= DBL_MIN:
/// the rounding of 1/inflation, of that pow() and of the product moves
/// cut^inflation by far less than the 2^-30 margin, so every such v has
/// v^inflation < prune_below * (1 - 2^-31), and a pow() within one ulp of
/// that (or of a subnormal result) stays below prune_below.  Any other spec
/// leaves cut = 0; negative, NaN and infinite entries and entries >= cut
/// always take pow().
struct PruneRule {
  double inflation = 1.0;
  double prune_below = 0.0;
  double cut = 0.0;  ///< entries in [0, cut) cannot survive; 0 = none

  PruneRule() = default;
  PruneRule(double inflation_in, double prune_below_in)
      : inflation(inflation_in), prune_below(prune_below_in) {
    if (std::isfinite(inflation) && inflation >= 1.0 &&
        std::isfinite(prune_below) &&
        prune_below >= std::numeric_limits<double>::min()) {
      cut = std::pow(prune_below, 1.0 / inflation) * (1.0 - 0x1p-30);
    }
  }

  /// True iff v survives, with pow(v, inflation) in `inflated`.
  [[nodiscard]] bool keep(double v, double& inflated) const {
    if (v >= 0.0 && v < cut) return false;
    inflated = std::pow(v, inflation);
    return inflated >= prune_below;
  }
};

/// Per-owner epilogue scratch and partial results.  prune is the
/// kPruneScale rule, built once per pass.  mask_dense mirrors
/// matrix/ops.hpp masked_sum's dense scatter row (restored to zero after
/// every row); reduce/col_sums are partials folded in owner order after the
/// parallel region (fold_epilogue).
struct EpilogueState {
  PruneRule prune;
  std::vector<double> mask_dense;
  std::vector<double> col_sums;
  double reduce = 0.0;
  std::uint64_t rows = 0;
  double seconds = 0.0;

  void begin_pass(const EpilogueSpec& spec, std::size_t ncols) {
    reduce = 0.0;
    rows = 0;
    seconds = 0.0;
    if (spec.kind == EpilogueKind::kMaskReduce) {
      if (mask_dense.size() < ncols) mask_dense.assign(ncols, 0.0);
    } else if (spec.kind == EpilogueKind::kPruneScale) {
      prune = PruneRule(spec.inflation, spec.prune_below);
      if (spec.collect_column_sums) col_sums.assign(ncols, 0.0);
    }
  }
};

/// Process-wide mirror of SpGemmStats::epilogue_rows, by epilogue kind;
/// multiply_rap() counts its coarse rows under kind "rap".
struct EpilogueTelemetry {
  telemetry::Counter& prune_scale_rows;
  telemetry::Counter& mask_reduce_rows;
  telemetry::Counter& rap_rows;
  static EpilogueTelemetry& get() {
    auto& reg = telemetry::registry();
    static EpilogueTelemetry t{
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "prune_scale"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "mask_reduce"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "rap")};
    return t;
  }
  telemetry::Counter& for_kind(EpilogueKind k) {
    switch (k) {
      case EpilogueKind::kMaskReduce:
        return mask_reduce_rows;
      default:
        return prune_scale_rows;
    }
  }
};

/// Apply the fused epilogue to one computed row i.  Reads `nnz` entries from
/// (cols_src, vals_src) and writes the kept entries to (cols_dst, vals_dst);
/// dst may alias src at a LOWER offset (forward compaction: the t-th source
/// entry is read before the kept-th destination entry is written, and
/// kept <= t always).  Returns the kept count.
///
/// kPruneScale keeps the entries state.prune keeps, stored as their
/// inflated value narrowed to VT, in row order — the rule and emission
/// order of apps inflate_and_prune, so the fused output is bit-identical to
/// unfused-then-postprocessed.  kMaskReduce
/// scatters the row into a dense scratch, sums the entries at the mask row's
/// positions into the thread partial (exactly masked_sum's per-row walk) and
/// keeps nothing.
template <IndexType IT, ValueType VT>
inline std::size_t apply_row_epilogue(const EpilogueSpec& spec,
                                      const EpilogueContext<IT, VT>& ctx,
                                      EpilogueState& state, std::size_t i,
                                      const IT* cols_src, const VT* vals_src,
                                      std::size_t nnz, IT* cols_dst,
                                      VT* vals_dst) {
  ++state.rows;
  switch (spec.kind) {
    case EpilogueKind::kPruneScale: {
      std::size_t kept = 0;
      const bool collect = spec.collect_column_sums;
      const PruneRule rule = state.prune;  // a local the stores cannot alias
      for (std::size_t t = 0; t < nnz; ++t) {
        double inflated = 0.0;
        if (rule.keep(static_cast<double>(vals_src[t]), inflated)) {
          const auto v = static_cast<VT>(inflated);
          const IT col = cols_src[t];
          cols_dst[kept] = col;
          vals_dst[kept] = v;
          if (collect) {
            state.col_sums[static_cast<std::size_t>(col)] +=
                static_cast<double>(v);
          }
          ++kept;
        }
      }
      return kept;
    }
    case EpilogueKind::kMaskReduce: {
      const CsrMatrix<IT, VT>& mask = *ctx.mask;
      double* dense = state.mask_dense.data();
      for (std::size_t t = 0; t < nnz; ++t) {
        dense[static_cast<std::size_t>(cols_src[t])] =
            static_cast<double>(vals_src[t]);
      }
      for (Offset j = mask.row_begin(static_cast<IT>(i));
           j < mask.row_end(static_cast<IT>(i)); ++j) {
        state.reduce +=
            dense[static_cast<std::size_t>(mask.cols[static_cast<std::size_t>(j)])];
      }
      for (std::size_t t = 0; t < nnz; ++t) {
        dense[static_cast<std::size_t>(cols_src[t])] = 0.0;
      }
      return 0;
    }
    default: {
      if (cols_dst != cols_src) {
        std::copy_n(cols_src, nnz, cols_dst);
        std::copy_n(vals_src, nnz, vals_dst);
      }
      return nnz;
    }
  }
}

/// True when the spec's kind runs through the per-row hook of the drivers.
inline bool epilogue_fuses_rows(const EpilogueSpec& spec) {
  return spec.kind != EpilogueKind::kNone;
}

/// Argument validation of the fused-epilogue entry points.
template <IndexType IT, ValueType VT>
inline void validate_epilogue(const EpilogueSpec& spec,
                              const EpilogueContext<IT, VT>& ctx,
                              const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b) {
  if (spec.kind != EpilogueKind::kMaskReduce) return;
  if (ctx.mask == nullptr) {
    throw std::invalid_argument(
        "epilogue: kMaskReduce requires a mask matrix (EpilogueContext::mask "
        "/ SpGemmHandle::set_epilogue_mask)");
  }
  if (ctx.mask->nrows != a.nrows || ctx.mask->ncols != b.ncols) {
    throw std::invalid_argument("epilogue: mask dimensions mismatch product");
  }
}

/// Fold the owners' epilogue partials in ascending owner order;
/// `state_of(owner)` gives each owner's EpilogueState.  Under a static
/// schedule that is ascending row-range order, so the fold is deterministic
/// for a fixed thread count.  It is NOT bitwise equal to a sequential scan
/// of the output (floating-point addition is not associative); see README
/// "Fused epilogues".  Writes `result` when set, publishes telemetry, and
/// records rows and the slowest owner's seconds in `stats`.
template <typename Owners, typename StateOf>
void fold_epilogue(const EpilogueSpec& spec, std::size_t ncols,
                   const Owners& owners, StateOf state_of,
                   EpilogueResult* result, SpGemmStats& stats) {
  std::uint64_t rows = 0;
  double seconds = 0.0;
  for (const auto& owner : owners) {
    const EpilogueState& st = state_of(owner);
    rows += st.rows;
    seconds = std::max(seconds, st.seconds);
  }
  stats.epilogue_rows = rows;
  stats.epilogue_ms = seconds * 1e3;
  if (telemetry::enabled()) {
    EpilogueTelemetry::get().for_kind(spec.kind).add(rows);
    telemetry::phase_observe("epilogue", seconds);
  }
  if (result == nullptr) return;
  const bool sums =
      spec.kind == EpilogueKind::kPruneScale && spec.collect_column_sums;
  result->reset(sums ? ncols : 0);
  result->rows = rows;
  for (const auto& owner : owners) {
    const EpilogueState& st = state_of(owner);
    result->reduce += st.reduce;
    if (!result->col_sums.empty() && !st.col_sums.empty()) {
      for (std::size_t j = 0; j < result->col_sums.size(); ++j) {
        result->col_sums[j] += st.col_sums[j];
      }
    }
  }
}

}  // namespace spgemm::detail
