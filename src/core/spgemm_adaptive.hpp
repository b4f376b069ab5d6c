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
// where one accumulator cannot fit all regimes.
#pragma once

#include <algorithm>
#include <cstddef>

#include "accumulator/hash_table.hpp"
#include "accumulator/spa.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {
namespace detail {

/// Sorted-insertion accumulator for tiny rows: linear scan into a small
/// buffer is faster than any hashing below ~16 entries.
template <IndexType IT, ValueType VT, typename SR>
class TinyRowAccumulator {
 public:
  static constexpr std::size_t kCapacity = 16;

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
  IT cols_[kCapacity];
  VT vals_[kCapacity];
  std::size_t count_ = 0;
};

}  // namespace detail

/// Per-row flop thresholds separating the three regimes.
struct AdaptiveThresholds {
  Offset tiny_flop = 16;
  /// Dense regime when flop(row) >= ncols / dense_divisor.
  Offset dense_divisor = 2;
};

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_adaptive(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const SpGemmOptions& opts = {},
                                  SpGemmStats* stats = nullptr,
                                  AdaptiveThresholds thresholds = {},
                                  SR /*semiring*/ = {}) {
  const int nthreads = parallel::resolve_threads(opts.threads);
  parallel::ScopedNumThreads scoped(opts.threads);

  Timer timer;
  const auto nrows = static_cast<std::size_t>(a.nrows);
  parallel::RowPartition part = parallel::rows_to_threads(
      nrows, a.rpts.data(), a.cols.data(), b.rpts.data(), nthreads);
  if (stats != nullptr) {
    stats->setup_ms = timer.millis();
    stats->flop = part.total_flop();
  }
  const Offset dense_cut =
      static_cast<Offset>(b.ncols) / thresholds.dense_divisor;
  // The tiny-row buffer is register-sized; flop <= capacity bounds the
  // distinct-key count, so the threshold is clamped to the capacity no
  // matter what the caller asks for.
  const Offset tiny_cut = std::min<Offset>(
      thresholds.tiny_flop,
      static_cast<Offset>(detail::TinyRowAccumulator<IT, VT, SR>::kCapacity));

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);

  // ---- Symbolic ----------------------------------------------------------
  timer.reset();
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    HashAccumulator<IT, VT> hash;
    SpaAccumulator<IT, VT> spa;
    bool spa_ready = false;
    hash.prepare(hash_table_size_for(
        std::min<Offset>(part.max_row_flop(tid), dense_cut),
        static_cast<std::size_t>(b.ncols)));
    for (std::size_t i = part.offsets[static_cast<std::size_t>(tid)];
         i < part.offsets[static_cast<std::size_t>(tid) + 1]; ++i) {
      const Offset row_flop = part.flop_prefix[i + 1] - part.flop_prefix[i];
      if (row_flop >= dense_cut) {
        if (!spa_ready) {
          spa.prepare(static_cast<std::size_t>(b.ncols));
          spa_ready = true;
        }
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            spa.insert(b.cols[static_cast<std::size_t>(l)]);
          }
        }
        c.rpts[i + 1] = static_cast<Offset>(spa.count());
        spa.reset();
      } else {
        // Tiny rows share the hash path in the symbolic phase: counting
        // distinct keys is all that matters and flop <= 16 is cheap
        // either way.
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            hash.insert(b.cols[static_cast<std::size_t>(l)]);
          }
        }
        c.rpts[i + 1] = static_cast<Offset>(hash.count());
        hash.reset();
      }
    }
  });
  for (std::size_t i = 0; i < nrows; ++i) c.rpts[i + 1] += c.rpts[i];
  if (stats != nullptr) stats->symbolic_ms = timer.millis();
  c.cols.resize(static_cast<std::size_t>(c.nnz()));
  c.vals.resize(static_cast<std::size_t>(c.nnz()));

  // ---- Numeric ------------------------------------------------------------
  timer.reset();
#pragma omp parallel num_threads(nthreads)
  parallel::for_each_owner(part.threads(), [&](int tid) {
    detail::TinyRowAccumulator<IT, VT, SR> tiny;
    HashAccumulator<IT, VT> hash;
    SpaAccumulator<IT, VT> spa;
    bool spa_ready = false;
    hash.prepare(hash_table_size_for(
        std::min<Offset>(part.max_row_flop(tid), dense_cut),
        static_cast<std::size_t>(b.ncols)));
    const auto fold = [](VT& acc, VT v) { SR::add_into(acc, v); };

    for (std::size_t i = part.offsets[static_cast<std::size_t>(tid)];
         i < part.offsets[static_cast<std::size_t>(tid) + 1]; ++i) {
      const Offset row_flop = part.flop_prefix[i + 1] - part.flop_prefix[i];
      IT* out_cols = c.cols.data() + c.rpts[i];
      VT* out_vals = c.vals.data() + c.rpts[i];

      if (row_flop <= tiny_cut) {
        tiny.begin();
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          const VT av = a.vals[static_cast<std::size_t>(j)];
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            tiny.accumulate(b.cols[static_cast<std::size_t>(l)],
                            SR::mul(av, b.vals[static_cast<std::size_t>(l)]));
          }
        }
        tiny.emit(out_cols, out_vals);  // always sorted
      } else if (row_flop >= dense_cut) {
        if (!spa_ready) {
          spa.prepare(static_cast<std::size_t>(b.ncols));
          spa_ready = true;
        }
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          const VT av = a.vals[static_cast<std::size_t>(j)];
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            spa.accumulate(b.cols[static_cast<std::size_t>(l)],
                           SR::mul(av,
                                   b.vals[static_cast<std::size_t>(l)]),
                           fold);
          }
        }
        if (opts.sort_output == SortOutput::kYes) {
          spa.extract_sorted(out_cols, out_vals);
        } else {
          spa.extract_unsorted(out_cols, out_vals);
        }
        spa.reset();
      } else {
        for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
          const auto k = static_cast<std::size_t>(
              a.cols[static_cast<std::size_t>(j)]);
          const VT av = a.vals[static_cast<std::size_t>(j)];
          for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
            hash.accumulate(b.cols[static_cast<std::size_t>(l)],
                            SR::mul(av,
                                    b.vals[static_cast<std::size_t>(l)]),
                            fold);
          }
        }
        if (opts.sort_output == SortOutput::kYes) {
          hash.extract_sorted(out_cols, out_vals);
        } else {
          hash.extract_unsorted(out_cols, out_vals);
        }
        hash.reset();
      }
    }
  });
  if (stats != nullptr) {
    stats->numeric_ms = timer.millis();
    stats->nnz_out = c.nnz();
  }
  // Tiny rows always emit sorted; the claim reflects the weaker guarantee.
  c.sortedness = opts.sort_output == SortOutput::kYes
                     ? Sortedness::kSorted
                     : Sortedness::kUnsorted;
  return c;
}

}  // namespace spgemm
