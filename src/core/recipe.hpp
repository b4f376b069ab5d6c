// The empirical algorithm recipe — paper Table 4 encoded as a function.
//
// Given the scenario (operation type, data origin, sortedness requirement)
// and the matrix features the paper keys on (compression ratio for real
// data; edge factor and skew for synthetic data), select() returns the
// algorithm the paper found dominant on KNL.  The thresholds are the
// paper's: CR > 2 is "high compression", edge factor > 8 is "dense",
// degree skew (max/mean row nnz) separates Uniform from Skewed patterns.
// Table 4 never keys on output width; resolve(), the kAuto resolution of
// every entry point, adds that one rule (kDenseRowMaxBytes below).
#pragma once

#include <cstddef>

#include "core/spgemm_options.hpp"
#include "matrix/stats.hpp"

namespace spgemm::recipe {

/// The use cases of Table 4.
enum class Operation {
  kSquare,      ///< A x A
  kTriangular,  ///< L x U (triangle counting)
  kTallSkinny,  ///< square x tall-skinny (multi-source BFS)
};

/// Whether matrix features come from measured real data (keyed on CR) or a
/// synthetic generator (keyed on edge factor + skew).
enum class DataOrigin {
  kReal,
  kSynthetic,
};

/// Scenario description consumed by select().
struct Scenario {
  Operation op = Operation::kSquare;
  DataOrigin origin = DataOrigin::kReal;
  SortOutput sorted = SortOutput::kYes;
  /// flop / nnz(C); real-data key.  <= 0 means unknown.
  double compression_ratio = 0.0;
  /// mean nnz per row of A; synthetic-data key ("edge factor").
  double edge_factor = 0.0;
  /// max/mean row nnz of A; > skew_threshold means "Skewed".
  double skew = 1.0;
};

inline constexpr double kHighCompression = 2.0;   // Table 4(a) split
inline constexpr double kDenseEdgeFactor = 8.0;   // Table 4(b) split
inline constexpr double kSkewThreshold = 8.0;     // Uniform vs Skewed

/// The dense-row rule on top of Table 4: a product whose whole output row
/// (b.ncols values) fits in this many bytes, about one core's L2, runs the
/// direct-indexed SPA (kSpa1p) where Table 4 picks Hash.  Such a row needs
/// no hashing, and the SPA emits it in column order without sorting.  Wider
/// rows stay on Hash: past L2 the SPA's lead rests on the host's last-level
/// cache.  README "Kernel choice under kAuto" tabulates the crossover.
inline constexpr std::size_t kDenseRowMaxBytes = std::size_t{256} << 10;

/// Table 4 lookup.
Algorithm select(const Scenario& scenario);

/// Convenience: build a Scenario from matrices (synthetic-keyed if the
/// caller says so) and run select().
template <IndexType IT, ValueType VT>
Algorithm select_for(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                     Operation op, SortOutput sorted,
                     DataOrigin origin = DataOrigin::kReal,
                     Offset nnz_out_hint = 0) {
  Scenario s;
  s.op = op;
  s.origin = origin;
  s.sorted = sorted;
  const MultiplyProfile prof = profile_multiply(a, b, nnz_out_hint);
  s.compression_ratio = prof.compression_ratio();
  s.edge_factor = prof.mean_row_nnz_a;
  s.skew = prof.skew_a;
  return select(s);
}

/// The one kAuto resolution every entry point shares: an explicit
/// algorithm passes through; kAuto takes the Table 4 pick for `op` on real
/// data, with kSpa1p in place of a Hash pick when a dense output row fits
/// kDenseRowMaxBytes, or kHash when `runs` says the calling entry point
/// cannot run that pick (no symbolic phase to plan, no semiring fold, ...).
template <IndexType IT, ValueType VT>
Algorithm resolve(Algorithm algo, const CsrMatrix<IT, VT>& a,
                  const CsrMatrix<IT, VT>& b, SortOutput sorted,
                  Operation op = Operation::kSquare,
                  bool (*runs)(Algorithm) = nullptr) {
  if (algo != Algorithm::kAuto) return algo;
  Algorithm pick = select_for(a, b, op, sorted);
  if (pick == Algorithm::kHash &&
      static_cast<std::size_t>(b.ncols) <= kDenseRowMaxBytes / sizeof(VT)) {
    pick = Algorithm::kSpa1p;
  }
  return runs == nullptr || runs(pick) ? pick : Algorithm::kHash;
}

}  // namespace spgemm::recipe
