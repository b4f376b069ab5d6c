// Row-adaptive poly-algorithm SpGEMM.
//
// The GPU codes the paper surveys (§2: Liu & Vinter, Nagasaka et al. [25])
// bin output rows by their flop count and run a specialized kernel per bin.
// This CPU adaptation picks the accumulator PER ROW inside one pass:
//   * tiny rows   (flop <= 16)      — insertion into a sorted register-
//                                     sized buffer (no hashing at all),
//   * normal rows                   — the linear-probing hash table,
//   * dense rows  (flop >= ncols/2) — the dense SPA (the row will touch a
//                                     large fraction of the columns anyway).
// Output quality is identical to the Hash kernel (sorted or unsorted); the
// win is on matrices whose row-flop distribution is extremely skewed,
// where one accumulator cannot fit all regimes.  spgemm_adaptive() is the
// direct kernel: its rows run on the shared one-phase driver
// (core/spgemm_onephase.hpp), which hands each row its flop.  multiply()
// runs the same regimes through the two-phase row pipeline instead
// (AdaptivePlanPolicy, core/spgemm_policies.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "accumulator/hash_table.hpp"
#include "accumulator/spa.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_onephase.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

/// Per-row flop thresholds separating the three regimes.
struct AdaptiveThresholds {
  Offset tiny_flop = 16;
  /// Dense regime when flop(row) >= ncols / dense_divisor; must be >= 1.
  Offset dense_divisor = 2;
};

namespace detail {

/// Capacity of the tiny-row buffer.
inline constexpr std::size_t kTinyRowCapacity = 16;

/// The regime cuts of a product into `ncols` columns: a row is tiny when
/// flop <= tiny (checked first) and dense when flop >= dense.  The direct
/// kernel and AdaptivePlanPolicy both cut here.
struct AdaptiveCuts {
  Offset tiny = 0;
  Offset dense = 0;
};

inline AdaptiveCuts adaptive_cuts(Offset ncols, AdaptiveThresholds thresholds) {
  if (thresholds.dense_divisor < 1) {
    throw std::invalid_argument(
        "AdaptiveThresholds: dense_divisor must be at least 1");
  }
  // The tiny-row buffer is register-sized; flop <= capacity bounds the
  // distinct-key count, so the threshold is clamped to the capacity no
  // matter what the caller asks for.
  return {std::min<Offset>(thresholds.tiny_flop,
                           static_cast<Offset>(kTinyRowCapacity)),
          ncols / thresholds.dense_divisor};
}

/// Sorted-insertion accumulator for tiny rows: linear scan into a small
/// buffer is faster than any hashing below ~16 entries.
template <IndexType IT, ValueType VT, typename SR>
class TinyRowAccumulator {
 public:
  void begin() { count_ = 0; }

  void accumulate(IT key, VT value) {
    std::size_t pos = 0;
    while (pos < count_ && cols_[pos] < key) ++pos;
    if (pos < count_ && cols_[pos] == key) {
      SR::add_into(vals_[pos], value);
      return;
    }
    for (std::size_t i = count_; i > pos; --i) {
      cols_[i] = cols_[i - 1];
      vals_[i] = vals_[i - 1];
    }
    cols_[pos] = key;
    vals_[pos] = value;
    ++count_;
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  void emit(IT* out_cols, VT* out_vals) const {
    for (std::size_t i = 0; i < count_; ++i) {
      out_cols[i] = cols_[i];
      out_vals[i] = vals_[i];
    }
  }

 private:
  IT cols_[kTinyRowCapacity];
  VT vals_[kTinyRowCapacity];
  std::size_t count_ = 0;
};

}  // namespace detail

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_adaptive(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const SpGemmOptions& opts = {},
                                  SpGemmStats* stats = nullptr,
                                  AdaptiveThresholds thresholds = {},
                                  SR /*semiring*/ = {}) {
  const detail::AdaptiveCuts cuts = detail::adaptive_cuts(b.ncols, thresholds);
  const auto ncols = static_cast<std::size_t>(b.ncols);
  const bool sorted = opts.sort_output == SortOutput::kYes;
  // Per thread: a hash table for the widest non-dense row the thread sees,
  // and the SPA only when one of its rows may be dense.
  const auto make_row = [&](Offset max_flop) {
    HashAccumulator<IT, VT> hash;
    hash.prepare(
        hash_table_size_for(std::min<Offset>(max_flop, cuts.dense), ncols));
    SpaAccumulator<IT, VT> spa;
    if (max_flop >= cuts.dense) spa.prepare(ncols);
    return [&a, &b, cuts, sorted, hash = std::move(hash), spa = std::move(spa),
            tiny = detail::TinyRowAccumulator<IT, VT, SR>{}](
               std::size_t i, Offset flop, IT* out_cols,
               VT* out_vals) mutable -> std::size_t {
      const auto run = [&](auto&& accumulate) {
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          const VT av = a.vals[static_cast<std::size_t>(j)];
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            accumulate(b.cols[static_cast<std::size_t>(l)],
                       SR::mul(av, b.vals[static_cast<std::size_t>(l)]));
          }
        }
      };
      const auto fold_into = [&](auto& acc) {
        run([&](IT col, VT v) {
          acc.accumulate(col, v, [](VT& x, VT y) { SR::add_into(x, y); });
        });
        return detail::emit_row(acc, sorted, out_cols, out_vals);
      };
      if (flop <= cuts.tiny) {
        tiny.begin();
        run([&](IT col, VT v) { tiny.accumulate(col, v); });
        tiny.emit(out_cols, out_vals);  // always sorted
        return tiny.count();
      }
      return flop >= cuts.dense ? fold_into(spa) : fold_into(hash);
    };
  };
  // Tiny rows always emit sorted; the claim reflects the weaker guarantee.
  return detail::one_phase_product(a, b, opts, stats, make_row);
}

}  // namespace spgemm
