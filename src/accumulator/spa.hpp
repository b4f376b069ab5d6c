// Dense sparse accumulator (SPA) after Gilbert, Moler & Schreiber [16]:
// a dense value array, a one-bit-per-column occupancy bitmap and a list of
// touched columns.  O(ncols) memory per thread, O(1) insert, reset in
// O(row nnz).  This is the accumulator behind the MKL stand-ins (see
// DESIGN.md substitutions), the Adaptive kernel's dense regime and the
// classic Gustavson formulation.
//
// Inserts are branch-free: the bit is tested and set, the key is written to
// the touched list on every call and the count advances only on a new key.
// accumulate() folds speculatively into the stored value and then selects
// between the fold and the plain store, so a new key's value never depends
// on what the slot held; the value array is zero-filled at first prepare,
// so that speculative read never sees an uninitialized value.
//
// A sorted row of more than kRowSortInsertionMax keys whose span passes
// row_sort_uses_bitmap() is emitted by walking the occupied bitmap words
// in ascending order — no sort and no payload copy.  Other rows sort their
// touched keys with sort_row() (accumulator/row_sort.hpp).  Either way the
// row comes out ascending, and unsorted rows come out in first-occurrence
// order, exactly as the hash accumulator emits them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "accumulator/row_sort.hpp"
#include "common/types.hpp"
#include "mem/workspace.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
class SpaAccumulator {
 public:
  /// Size the SPA for `ncols` columns; clears the bitmap and zero-fills the
  /// values on first use at this size (later rows reset only the words
  /// they touched).
  void prepare(std::size_t ncols) {
    const std::size_t nwords = (ncols + 63) / 64;
    vals_ = vals_scratch_.ensure(ncols);
    bits_ = bits_scratch_.ensure(nwords);
    // One spare entry: a repeated key writes touched_[count_] even when
    // every column is already in the row.
    touched_ = touched_scratch_.ensure(ncols + 1);
    if (ncols > initialized_) {
      std::fill_n(bits_, nwords, std::uint64_t{0});
      std::fill_n(vals_, ncols, VT{});
      initialized_ = ncols;
    } else if (count_ > 0) {
      reset();
    }
    count_ = 0;
  }

  bool insert(IT key) {
    ++keys_resolved_;
    return claim(key);
  }

  /// Capture variant of insert(): the SPA's slot IS the column index, so
  /// this returns key (new) or ~key (already present).
  IT insert_tagged(IT key) {
    ++keys_resolved_;
    return claim(key) ? key : static_cast<IT>(~key);
  }

  [[nodiscard]] VT* slot_values() { return vals_; }

  [[nodiscard]] IT touched_slot(std::size_t i) const { return touched_[i]; }

  [[nodiscard]] IT key_at_slot(IT slot) const { return slot; }

  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    ++keys_resolved_;
    const auto k = static_cast<std::size_t>(key);
    const bool fresh = claim(key);
    VT folded = vals_[k];
    fold(folded, value);
    vals_[k] = fresh ? value : folded;
  }

  void accumulate(IT key, VT value) {
    accumulate(key, value, [](VT& acc, VT v) { acc += v; });
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  void extract_unsorted(IT* out_cols, VT* out_vals) const {
    for (std::size_t i = 0; i < count_; ++i) {
      out_cols[i] = touched_[i];
      out_vals[i] = vals_[static_cast<std::size_t>(touched_[i])];
    }
  }

  void extract_sorted(IT* out_cols, VT* out_vals) {
    if (count_ > kRowSortInsertionMax) {
      IT lo = touched_[0];
      IT hi = touched_[0];
      for (std::size_t i = 1; i < count_; ++i) {
        lo = std::min(lo, touched_[i]);
        hi = std::max(hi, touched_[i]);
      }
      if (row_sort_uses_bitmap(lo, hi, count_)) {
        walk_words(static_cast<std::size_t>(lo) >> 6,
                   static_cast<std::size_t>(hi) >> 6, out_cols, out_vals);
        return;
      }
    }
    // Sorting the touched-column list (not (col,val) pairs) lets the value
    // gather stay a dense-array read.
    sort_row(touched_, count_);
    extract_unsorted(out_cols, out_vals);
  }

  void reset() {
    for (std::size_t i = 0; i < count_; ++i) {
      bits_[static_cast<std::size_t>(touched_[i]) >> 6] = 0;
    }
    count_ = 0;
  }

  /// SPA lookups are direct-indexed; there are no probe rounds to count.
  [[nodiscard]] std::uint64_t probes() const { return 0; }

  /// Keys resolved (insert/accumulate requests).
  [[nodiscard]] std::uint64_t keys_resolved() const { return keys_resolved_; }

 private:
  /// Mark `key` occupied and append it to the touched list; returns whether
  /// it was new.  The append is unconditional and only the count depends on
  /// the test, so no branch follows the bitmap.
  bool claim(IT key) {
    const auto k = static_cast<std::size_t>(key);
    std::uint64_t& word = bits_[k >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (k & 63);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    touched_[count_] = key;
    count_ += static_cast<std::size_t>(fresh);
    return fresh;
  }

  /// Emit the occupied columns of words [first, last] in ascending order.
  void walk_words(std::size_t first, std::size_t last, IT* out_cols,
                  VT* out_vals) const {
    std::size_t out = 0;
    for (std::size_t w = first; w <= last; ++w) {
      const std::size_t base = w << 6;
      for (std::uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t k =
            base + static_cast<std::size_t>(std::countr_zero(bits));
        out_cols[out] = static_cast<IT>(k);
        out_vals[out] = vals_[k];
        ++out;
      }
    }
  }

  mem::ThreadScratch<VT> vals_scratch_;
  mem::ThreadScratch<std::uint64_t> bits_scratch_;
  mem::ThreadScratch<IT> touched_scratch_;
  VT* vals_ = nullptr;
  std::uint64_t* bits_ = nullptr;
  IT* touched_ = nullptr;
  std::size_t count_ = 0;
  std::size_t initialized_ = 0;
  std::uint64_t keys_resolved_ = 0;
};

}  // namespace spgemm
