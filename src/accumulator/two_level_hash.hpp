// Two-level (chained) hash map accumulator — the KokkosKernels 'kkmem'
// stand-in (paper §2: "uses a multi-level hash map data structure").
//
// Level 1 is a fixed power-of-two bucket array of chain heads; level 2 is a
// bump-allocated node pool (key, value, next).  Inserts append to the pool
// and link into the bucket chain; per-row reset unhooks only the used
// buckets.  Output is emitted in pool (insertion) order — always unsorted,
// matching KokkosKernels' "Any/Unsorted" row in the paper's Table 1.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "accumulator/hash_table.hpp"
#include "accumulator/row_sort.hpp"
#include "common/types.hpp"
#include "mem/workspace.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
class TwoLevelHashAccumulator {
 public:
  static constexpr std::int32_t kNil = -1;

  /// `max_row_entries` bounds the node pool (flop upper bound for the row
  /// block); the L1 bucket count scales with it but is capped so the
  /// second level genuinely chains under load, as in kkmem.
  void prepare(std::size_t max_row_entries) {
    const std::size_t buckets = std::bit_ceil(std::clamp<std::size_t>(
        max_row_entries / 2, 64, 1u << 15));
    heads_ = heads_scratch_.ensure(buckets);
    keys_ = keys_scratch_.ensure(max_row_entries + 1);
    vals_ = vals_scratch_.ensure(max_row_entries + 1);
    next_ = next_scratch_.ensure(max_row_entries + 1);
    used_buckets_ = used_scratch_.ensure(max_row_entries + 1);
    if (buckets > initialized_) {
      std::fill(heads_, heads_ + buckets, kNil);
      initialized_ = buckets;
    } else if (used_count_ > 0) {
      reset();
    }
    bucket_mask_ = buckets - 1;
    count_ = 0;
    used_count_ = 0;
  }

  bool insert(IT key) {
    ++keys_resolved_;
    const std::size_t b = bucket_of(key);
    for (std::int32_t node = heads_[b]; node != kNil;
         node = next_[static_cast<std::size_t>(node)]) {
      ++probes_;
      if (keys_[static_cast<std::size_t>(node)] == key) return false;
    }
    link(b, key, VT{0});
    return true;
  }

  /// Capture variant of insert(): the slot is the node's pool index
  /// (== insertion order).  Returns node (new) or ~node (already present).
  IT insert_tagged(IT key) {
    ++keys_resolved_;
    const std::size_t b = bucket_of(key);
    for (std::int32_t node = heads_[b]; node != kNil;
         node = next_[static_cast<std::size_t>(node)]) {
      ++probes_;
      if (keys_[static_cast<std::size_t>(node)] == key) {
        return static_cast<IT>(~static_cast<IT>(node));
      }
    }
    link(b, key, VT{0});
    return static_cast<IT>(count_ - 1);
  }

  [[nodiscard]] VT* slot_values() { return vals_; }

  /// Nodes are bump-allocated, so the i-th inserted key lives at node i.
  [[nodiscard]] IT touched_slot(std::size_t i) const {
    return static_cast<IT>(i);
  }

  [[nodiscard]] IT key_at_slot(IT slot) const {
    return keys_[static_cast<std::size_t>(slot)];
  }

  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    ++keys_resolved_;
    const std::size_t b = bucket_of(key);
    for (std::int32_t node = heads_[b]; node != kNil;
         node = next_[static_cast<std::size_t>(node)]) {
      ++probes_;
      if (keys_[static_cast<std::size_t>(node)] == key) {
        fold(vals_[static_cast<std::size_t>(node)], value);
        return;
      }
    }
    link(b, key, value);
  }

  void accumulate(IT key, VT value) {
    accumulate(key, value, [](VT& acc, VT v) { acc += v; });
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  void extract_unsorted(IT* out_cols, VT* out_vals) const {
    std::copy(keys_, keys_ + count_, out_cols);
    std::copy(vals_, vals_ + count_, out_vals);
  }

  void extract_keys(IT* out_cols) const {
    std::copy(keys_, keys_ + count_, out_cols);
  }

  /// Sorted extraction is not native to kkmem (Table 1: unsorted only) but
  /// is provided so the driver stays uniform; it costs an explicit sort.
  void extract_sorted(IT* out_cols, VT* out_vals) {
    extract_unsorted(out_cols, out_vals);
    sort_row(out_cols, out_vals, count_);
  }

  void reset() {
    for (std::size_t i = 0; i < used_count_; ++i) {
      heads_[static_cast<std::size_t>(used_buckets_[i])] = kNil;
    }
    count_ = 0;
    used_count_ = 0;
  }

  [[nodiscard]] std::uint64_t probes() const { return probes_; }

  /// Keys resolved (insert/accumulate requests).
  [[nodiscard]] std::uint64_t keys_resolved() const { return keys_resolved_; }

 private:
  void link(std::size_t bucket, IT key, VT value) {
    if (heads_[bucket] == kNil) {
      used_buckets_[used_count_++] = static_cast<std::int32_t>(bucket);
    }
    keys_[count_] = key;
    vals_[count_] = value;
    next_[count_] = heads_[bucket];
    heads_[bucket] = static_cast<std::int32_t>(count_);
    ++count_;
  }

  [[nodiscard]] std::size_t bucket_of(IT key) const {
    return (static_cast<std::size_t>(static_cast<std::uint64_t>(key) *
                                     2654435761ULL)) &
           bucket_mask_;
  }

  mem::ThreadScratch<std::int32_t> heads_scratch_;
  mem::ThreadScratch<IT> keys_scratch_;
  mem::ThreadScratch<VT> vals_scratch_;
  mem::ThreadScratch<std::int32_t> next_scratch_;
  mem::ThreadScratch<std::int32_t> used_scratch_;
  std::int32_t* heads_ = nullptr;
  IT* keys_ = nullptr;
  VT* vals_ = nullptr;
  std::int32_t* next_ = nullptr;
  std::int32_t* used_buckets_ = nullptr;
  std::size_t bucket_mask_ = 0;
  std::size_t count_ = 0;
  std::size_t used_count_ = 0;
  std::size_t initialized_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t keys_resolved_ = 0;
};

}  // namespace spgemm
