// Fused row epilogues, shared by both SpGEMM drivers.
//
// The epilogue hook runs over each output row right after the row is
// computed, while the row (and the A/B rows that produced it) are still
// cache-hot.  kPruneScale (MCL's inflate and prune) compacts the row in
// place, so the full intermediate product is never materialized — its
// allocation vanishes from peak RSS.  The spec (EpilogueSpec) rides in
// SpGemmOptions.
//
// The two-phase row pipeline (core/spgemm_twophase.hpp: one-shot, handle
// execute) and the one-phase driver (core/spgemm_onephase.hpp: SPA-1p)
// both call apply_row_epilogue() per row with one EpilogueState per owner,
// and fold the owners' row counts and seconds with fold_epilogue(), so a
// row gets the same kept entries whichever driver computed it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "core/spgemm_options.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace spgemm::detail {

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

/// Per-owner epilogue state: the kPruneScale rule, built once per pass,
/// and the rows and seconds the owner spent in the hook.
struct EpilogueState {
  PruneRule prune;
  std::uint64_t rows = 0;
  double seconds = 0.0;

  void begin_pass(const EpilogueSpec& spec) {
    prune = PruneRule(spec.inflation, spec.prune_below);
    rows = 0;
    seconds = 0.0;
  }
};

/// Process-wide mirror of SpGemmStats::epilogue_rows, by epilogue kind;
/// multiply_rap() counts its coarse rows under kind "rap".
struct EpilogueTelemetry {
  telemetry::Counter& prune_scale_rows;
  telemetry::Counter& rap_rows;
  static EpilogueTelemetry& get() {
    auto& reg = telemetry::registry();
    static EpilogueTelemetry t{
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "prune_scale"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "rap")};
    return t;
  }
};

/// Apply the fused epilogue to one computed row.  Reads `nnz` entries from
/// (cols_src, vals_src) and writes the kept entries to (cols_dst, vals_dst);
/// dst may alias src at a LOWER offset (forward compaction: the t-th source
/// entry is read before the kept-th destination entry is written, and
/// kept <= t always).  Returns the kept count.
///
/// Keeps the entries state.prune keeps, stored as their inflated value
/// narrowed to VT, in row order — the rule and emission order of apps
/// inflate_and_prune, so the fused output is bit-identical to
/// unfused-then-postprocessed.
template <IndexType IT, ValueType VT>
inline std::size_t apply_row_epilogue(EpilogueState& state,
                                      const IT* cols_src, const VT* vals_src,
                                      std::size_t nnz, IT* cols_dst,
                                      VT* vals_dst) {
  ++state.rows;
  std::size_t kept = 0;
  const PruneRule rule = state.prune;  // a local the stores cannot alias
  for (std::size_t t = 0; t < nnz; ++t) {
    double inflated = 0.0;
    if (rule.keep(static_cast<double>(vals_src[t]), inflated)) {
      cols_dst[kept] = cols_src[t];
      vals_dst[kept] = static_cast<VT>(inflated);
      ++kept;
    }
  }
  return kept;
}

/// The guard of multiply(), multiply_over() and multiply_rap(): only some of
/// their kernels could run a fused epilogue, so they run none and refuse
/// one.  multiply_with_epilogue is the one-shot that runs it.
inline void reject_epilogue(const SpGemmOptions& opts, const char* entry) {
  if (opts.epilogue.enabled()) {
    throw std::invalid_argument(
        std::string(entry) +
        ": opts.epilogue is set; fused epilogues run through "
        "multiply_with_epilogue");
  }
}

/// Fold the owners' epilogue tallies; `state_of(owner)` gives each owner's
/// EpilogueState.  Records the rows and the slowest owner's seconds in
/// `stats` and publishes telemetry.
template <typename Owners, typename StateOf>
void fold_epilogue(const Owners& owners, StateOf state_of,
                   SpGemmStats& stats) {
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
    EpilogueTelemetry::get().prune_scale_rows.add(rows);
    telemetry::phase_observe("epilogue", seconds);
  }
}

}  // namespace spgemm::detail
