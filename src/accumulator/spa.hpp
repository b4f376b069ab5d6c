// Dense sparse accumulator (SPA) after Gilbert, Moler & Schreiber [16]:
// a dense value array plus an occupancy flag per column and a list of
// touched columns.  O(ncols) memory per thread, O(1) insert, reset in
// O(row nnz).  This is the accumulator behind the MKL stand-ins (see
// DESIGN.md substitutions) and the classic Gustavson formulation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "accumulator/hash_table.hpp"
#include "accumulator/row_sort.hpp"
#include "common/types.hpp"
#include "mem/workspace.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
class SpaAccumulator {
 public:
  /// Size the SPA for `ncols` columns; clears all occupancy flags on first
  /// use (later rows reset only touched entries).
  void prepare(std::size_t ncols) {
    vals_ = vals_scratch_.ensure(ncols);
    flags_ = flags_scratch_.ensure(ncols);
    touched_ = touched_scratch_.ensure(ncols);
    if (ncols > initialized_) {
      std::fill(flags_, flags_ + ncols, std::uint8_t{0});
      initialized_ = ncols;
    } else if (count_ > 0) {
      reset();
    }
    count_ = 0;
  }

  bool insert(IT key) {
    ++keys_resolved_;
    const auto k = static_cast<std::size_t>(key);
    if (flags_[k] != 0) return false;
    flags_[k] = 1;
    touched_[count_++] = key;
    return true;
  }

  /// Capture variant of insert(): the SPA's slot IS the column index, so
  /// this returns key (new) or ~key (already present).
  IT insert_tagged(IT key) {
    ++keys_resolved_;
    const auto k = static_cast<std::size_t>(key);
    if (flags_[k] != 0) return static_cast<IT>(~key);
    flags_[k] = 1;
    touched_[count_++] = key;
    return key;
  }

  [[nodiscard]] VT* slot_values() { return vals_; }

  [[nodiscard]] IT touched_slot(std::size_t i) const { return touched_[i]; }

  [[nodiscard]] IT key_at_slot(IT slot) const { return slot; }

  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    ++keys_resolved_;
    const auto k = static_cast<std::size_t>(key);
    if (flags_[k] != 0) {
      fold(vals_[k], value);
    } else {
      flags_[k] = 1;
      vals_[k] = value;
      touched_[count_++] = key;
    }
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
    // Sorting the touched-column list (not (col,val) pairs) lets the value
    // gather stay a dense-array read.
    sort_row(touched_, count_);
    extract_unsorted(out_cols, out_vals);
  }

  void reset() {
    for (std::size_t i = 0; i < count_; ++i) {
      flags_[static_cast<std::size_t>(touched_[i])] = 0;
    }
    count_ = 0;
  }

  /// SPA lookups are direct-indexed; there are no probe rounds to count.
  [[nodiscard]] std::uint64_t probes() const { return 0; }

  /// Keys resolved (insert/accumulate requests).
  [[nodiscard]] std::uint64_t keys_resolved() const { return keys_resolved_; }

 private:
  mem::ThreadScratch<VT> vals_scratch_;
  mem::ThreadScratch<std::uint8_t> flags_scratch_;
  mem::ThreadScratch<IT> touched_scratch_;
  VT* vals_ = nullptr;
  std::uint8_t* flags_ = nullptr;
  IT* touched_ = nullptr;
  std::size_t count_ = 0;
  std::size_t initialized_ = 0;
  std::uint64_t keys_resolved_ = 0;
};

}  // namespace spgemm
