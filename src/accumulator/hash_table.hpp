// Linear-probing hash accumulator (paper §4.2.1, Fig. 8a).
//
// Key = column index (never negative), empty slot = -1, multiply-shift hash,
// table size a power of two strictly greater than the row's flop upper bound
// (capped by the column count) so the load factor stays below ~0.5 and the
// table can never fill up mid-row.  One table per thread, reinitialized per
// row by undoing only the touched slots.
//
// The accumulator exposes the exact operations the two-phase kernels need:
//   symbolic:  insert(key)            -> was it new?
//   numeric:   accumulate(key, v)     -> upsert
//   per-row:   count(), extract_*(), reset()
// plus a probe counter feeding the collision-factor c of the cost model
// (§4.2.4, Eq. 2).
//
// ---- Batch-capture contract -----------------------------------------------
//
// Accumulators that additionally implement
//
//   insert_tagged_batch(const IT* keys, std::size_t n, IT* slots_out)
//
// opt into the driver's batched symbolic/capture path (the BatchProbe
// concept in core/spgemm_twophase.hpp): the driver streams a whole row's
// B-row stanzas into a contiguous key buffer and hands it over in one call.
// The contract is strict bit-identity with the per-key path — the call must
// leave the table, the touched-slot order and slots_out exactly as n
// sequential insert_tagged(keys[i]) calls would.  What a batch may change
// is the WORK accounting: vectorized hashing, prefetch pipelining and
// in-flight duplicate shortcuts can resolve keys in fewer probe rounds, so
// every accumulator reports two counters — probes() (rounds: table lines
// visited) and keys_resolved() (resolution requests) — and
// SpGemmStats surfaces both.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "accumulator/row_sort.hpp"
#include "common/types.hpp"
#include "mem/workspace.hpp"

namespace spgemm {

/// Below this key-table size, batched probing does not pay under
/// ProbeBatch::kAuto: a table this small stays cache-resident, each probe
/// round costs a handful of cycles, and the driver's stanza-copy pass
/// outweighs the pipeline's prefetch/branch wins.  Accumulators report the
/// comparison through batch_worthwhile(); ProbeBatch::kOn overrides it
/// (the ablation/test escape hatch).  256 KiB ~ the boundary where probe
/// loads start leaving L2 on current hosts.
inline constexpr std::size_t kBatchMinTableBytes = std::size_t{1} << 18;

/// Table size policy (paper Fig. 7 lines 9-12): the smallest power of two
/// strictly greater than min(upper_bound, ncols).
inline std::size_t hash_table_size_for(Offset row_flop_upper_bound,
                                       std::size_t ncols) {
  const auto capped = static_cast<std::size_t>(
      std::min<Offset>(row_flop_upper_bound, static_cast<Offset>(ncols)));
  return std::bit_ceil(capped + 1);
}

template <IndexType IT, ValueType VT>
class HashAccumulator {
 public:
  static constexpr IT kEmpty = static_cast<IT>(-1);

  /// Prepare a table of at least `size` slots (power of two enforced) and
  /// mark every slot empty.  Grow-only across calls so a thread reuses one
  /// allocation for its whole row block.
  void prepare(std::size_t size) {
    size = std::bit_ceil(std::max<std::size_t>(size, 16));
    keys_ = keys_scratch_.ensure(size);
    vals_ = vals_scratch_.ensure(size);
    touched_ = touched_scratch_.ensure(size);
    if (size > initialized_) {
      // First use at this size: clear the whole table once; afterwards
      // reset() only undoes touched slots.
      std::fill(keys_, keys_ + size, kEmpty);
      initialized_ = size;
    } else if (count_ > 0) {
      reset();
    }
    mask_ = size - 1;
    table_slots_ = size;
    count_ = 0;
  }

  /// Whether batched probing pays on this table under ProbeBatch::kAuto
  /// (see kBatchMinTableBytes).
  [[nodiscard]] bool batch_worthwhile() const {
    return table_slots_ * sizeof(IT) >= kBatchMinTableBytes;
  }

  /// Symbolic-phase insert; returns true when `key` was not yet present.
  bool insert(IT key) {
    ++keys_resolved_;
    std::size_t pos = slot_of(key);
    while (true) {
      ++probes_;
      if (keys_[pos] == key) return false;
      if (keys_[pos] == kEmpty) {
        keys_[pos] = key;
        touched_[count_++] = static_cast<IT>(pos);
        return true;
      }
      pos = (pos + 1) & mask_;
    }
  }

  /// Capture variant of insert() for the structure-reusing driver: returns
  /// the resolved slot s (>= 0) when `key` was newly inserted, or ~s when
  /// the key already lives at slot s.  The driver records the tagged slot
  /// per flop so the numeric phase can replay values without re-probing.
  IT insert_tagged(IT key) {
    ++keys_resolved_;
    return insert_tagged_at(slot_of(key), key);
  }

  /// Batched capture (see the batch-capture contract above): bit-identical
  /// to n sequential insert_tagged() calls.  The single-slot table has no
  /// vector probe to widen, so the batch win here is the software pipeline
  /// alone: each key's home slot line is prefetched a few keys ahead of its
  /// walk, hiding the table's cache-miss latency.
  void insert_tagged_batch(const IT* keys, std::size_t n, IT* slots_out) {
    keys_resolved_ += n;
    constexpr std::size_t kDist = 8;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kDist < n) __builtin_prefetch(keys_ + slot_of(keys[i + kDist]));
      slots_out[i] = insert_tagged_at(slot_of(keys[i]), keys[i]);
    }
  }

 private:
  IT insert_tagged_at(std::size_t pos, IT key) {
    while (true) {
      ++probes_;
      if (keys_[pos] == key) return static_cast<IT>(~pos);
      if (keys_[pos] == kEmpty) {
        keys_[pos] = key;
        touched_[count_++] = static_cast<IT>(pos);
        return static_cast<IT>(pos);
      }
      pos = (pos + 1) & mask_;
    }
  }

 public:
  /// Dense slot -> value storage the replay pass scatters into and the
  /// gather list reads from.  Valid between prepare() calls.
  [[nodiscard]] VT* slot_values() { return vals_; }

  /// Slot of the i-th inserted key (i < count()), insertion order.
  [[nodiscard]] IT touched_slot(std::size_t i) const { return touched_[i]; }

  /// Key stored at a slot returned by insert_tagged / touched_slot.
  [[nodiscard]] IT key_at_slot(IT slot) const {
    return keys_[static_cast<std::size_t>(slot)];
  }

  /// Numeric-phase upsert with a custom fold: fold(acc, value) combines a
  /// new contribution into an existing entry (semiring "add"); the first
  /// contribution for a key is stored directly.
  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    ++keys_resolved_;
    std::size_t pos = slot_of(key);
    while (true) {
      ++probes_;
      if (keys_[pos] == key) {
        fold(vals_[pos], value);
        return;
      }
      if (keys_[pos] == kEmpty) {
        keys_[pos] = key;
        vals_[pos] = value;
        touched_[count_++] = static_cast<IT>(pos);
        return;
      }
      pos = (pos + 1) & mask_;
    }
  }

  /// Numeric-phase upsert: C(i, key) += value.
  void accumulate(IT key, VT value) {
    accumulate(key, value, [](VT& acc, VT v) { acc += v; });
  }

  /// Distinct keys inserted since prepare()/reset().
  [[nodiscard]] std::size_t count() const { return count_; }

  /// Emit (cols, vals) in insertion order — the unsorted fast path.
  void extract_unsorted(IT* out_cols, VT* out_vals) const {
    for (std::size_t i = 0; i < count_; ++i) {
      const auto pos = static_cast<std::size_t>(touched_[i]);
      out_cols[i] = keys_[pos];
      out_vals[i] = vals_[pos];
    }
  }

  /// Emit keys only, insertion order (symbolic phase never needs values).
  void extract_keys(IT* out_cols) const {
    for (std::size_t i = 0; i < count_; ++i) {
      out_cols[i] = keys_[static_cast<std::size_t>(touched_[i])];
    }
  }

  /// Emit (cols, vals) ascending by column.
  void extract_sorted(IT* out_cols, VT* out_vals) {
    extract_unsorted(out_cols, out_vals);
    sort_row(out_cols, out_vals, count_);
  }

  /// Undo every touched slot; O(row nnz), not O(table size).
  void reset() {
    for (std::size_t i = 0; i < count_; ++i) {
      keys_[static_cast<std::size_t>(touched_[i])] = kEmpty;
    }
    count_ = 0;
  }

  /// Probe rounds since construction: table slots visited.  The collision
  /// factor of the cost model is probes() / keys_resolved() per phase.
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

  /// Keys resolved (insert/accumulate requests), batched or not.
  [[nodiscard]] std::uint64_t keys_resolved() const { return keys_resolved_; }

 private:
  [[nodiscard]] std::size_t slot_of(IT key) const {
    // Knuth multiplicative hashing; the multiplier is 2^32 / phi.
    return (static_cast<std::size_t>(static_cast<std::uint64_t>(key) *
                                     2654435761ULL)) &
           mask_;
  }

  mem::ThreadScratch<IT> keys_scratch_;
  mem::ThreadScratch<VT> vals_scratch_;
  mem::ThreadScratch<IT> touched_scratch_;
  IT* keys_ = nullptr;
  VT* vals_ = nullptr;
  IT* touched_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t table_slots_ = 0;
  std::size_t count_ = 0;
  std::size_t initialized_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t keys_resolved_ = 0;
};

}  // namespace spgemm
