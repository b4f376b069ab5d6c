// Per-kernel accumulator policies for the two-phase SpGEMM pipeline: the
// five two-phase kernels are these policies and nothing else.
//
//   Hash        (paper §4.2.1) linear-probing hash table, sized per owner to
//               the widest row flop of its range (paper Fig. 7);
//   HashVector  (paper §4.2.2) the chunked SIMD-probed table (Fig. 8);
//   SPA         dense sparse accumulator, O(ncols) per thread — the
//               stand-in for MKL's sorted-capable path;
//   KKHash      two-level chained hash map, the KokkosKernels 'kkmem'
//               stand-in;
//   Adaptive    per-row regimes (tiny / hash / dense SPA), after the GPU
//               codes that bin rows by flop (§2: Liu & Vinter, Nagasaka et
//               al. [25]).
//
// A policy supplies the accumulator type, its construction/sizing, and the
// per-row hook begin_row() which may switch regimes and force sorted
// emission (Adaptive's tiny rows).  All other kernels compile the hook
// away.  The SAME policy instances drive every pass of the row pipeline
// (core/spgemm_twophase.hpp): the one-shot product, the handle's plan and
// execute, and multiply_rap — so all of them size and probe their
// accumulators identically, a prerequisite for their bit-identical
// outputs.  with_plan_policy() at the bottom is the one algorithm-to-policy
// mapping they all share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "accumulator/hash_table.hpp"
#include "accumulator/hash_vec.hpp"
#include "accumulator/spa.hpp"
#include "accumulator/two_level_hash.hpp"
#include "common/types.hpp"
#include "core/spgemm_options.hpp"

namespace spgemm {

/// Per-row flop thresholds separating the Adaptive kernel's three regimes.
struct AdaptiveThresholds {
  Offset tiny_flop = 16;
  /// Dense regime when flop(row) >= ncols / dense_divisor; must be >= 1.
  Offset dense_divisor = 2;
};

}  // namespace spgemm

namespace spgemm::detail {

/// Largest tiny cut: a row of at most this many flop always emits sorted.
inline constexpr Offset kTinyRowCapacity = 16;

/// The regime cuts of a product into `ncols` columns: a row is tiny when
/// flop <= tiny (checked first) and dense when flop >= dense.
struct AdaptiveCuts {
  Offset tiny = 0;
  Offset dense = 0;
};

inline AdaptiveCuts adaptive_cuts(Offset ncols, AdaptiveThresholds thresholds) {
  if (thresholds.dense_divisor < 1) {
    throw std::invalid_argument(
        "AdaptiveThresholds: dense_divisor must be at least 1");
  }
  // A tiny row is emitted sorted, which sorts it; the cut is clamped to
  // kTinyRowCapacity so only rows that short pay for it, whatever the
  // caller asks for.
  return {std::min(thresholds.tiny_flop, kTinyRowCapacity),
          ncols / thresholds.dense_divisor};
}

/// Pairs the Hash and SPA accumulators behind one accumulator interface so
/// the Adaptive kernel's per-row regimes (tiny/hash/dense) flow through the
/// generic plan/execute loops.
/// The active sub-accumulator is chosen per row via set_dense(); slot
/// streams recorded against one regime replay against the same regime
/// because the regime is a pure function of the row's flop.
template <IndexType IT, ValueType VT>
class AdaptiveDualAccumulator {
 public:
  void prepare_hash(std::size_t size) { hash_.prepare(size); }
  void ensure_spa(std::size_t ncols) {
    if (spa_cols_ < ncols) {
      spa_.prepare(ncols);
      spa_cols_ = ncols;
    }
  }
  void set_dense(bool dense) { dense_ = dense; }

  bool insert(IT key) {
    return dense_ ? spa_.insert(key) : hash_.insert(key);
  }
  IT insert_tagged(IT key) {
    return dense_ ? spa_.insert_tagged(key) : hash_.insert_tagged(key);
  }
  [[nodiscard]] VT* slot_values() {
    return dense_ ? spa_.slot_values() : hash_.slot_values();
  }
  [[nodiscard]] IT touched_slot(std::size_t i) const {
    return dense_ ? spa_.touched_slot(i) : hash_.touched_slot(i);
  }
  [[nodiscard]] IT key_at_slot(IT slot) const {
    return dense_ ? spa_.key_at_slot(slot) : hash_.key_at_slot(slot);
  }
  template <typename Fold>
  void accumulate(IT key, VT value, Fold fold) {
    if (dense_) {
      spa_.accumulate(key, value, fold);
    } else {
      hash_.accumulate(key, value, fold);
    }
  }
  [[nodiscard]] std::size_t count() const {
    return dense_ ? spa_.count() : hash_.count();
  }
  void extract_unsorted(IT* out_cols, VT* out_vals) const {
    if (dense_) {
      spa_.extract_unsorted(out_cols, out_vals);
    } else {
      hash_.extract_unsorted(out_cols, out_vals);
    }
  }
  void extract_sorted(IT* out_cols, VT* out_vals) {
    if (dense_) {
      spa_.extract_sorted(out_cols, out_vals);
    } else {
      hash_.extract_sorted(out_cols, out_vals);
    }
  }
  void reset() {
    if (dense_) {
      spa_.reset();
    } else {
      hash_.reset();
    }
  }
  [[nodiscard]] std::uint64_t probes() const {
    return hash_.probes() + spa_.probes();
  }
  [[nodiscard]] std::uint64_t keys_resolved() const {
    return hash_.keys_resolved() + spa_.keys_resolved();
  }

 private:
  HashAccumulator<IT, VT> hash_;
  SpaAccumulator<IT, VT> spa_;
  bool dense_ = false;
  std::size_t spa_cols_ = 0;
};

template <IndexType IT, ValueType VT>
struct HashPlanPolicy {
  using Acc = HashAccumulator<IT, VT>;
  Acc make() const { return {}; }
  void prepare(Acc& acc, Offset max_row_flop, IT ncols) const {
    acc.prepare(
        hash_table_size_for(max_row_flop, static_cast<std::size_t>(ncols)));
  }
  bool begin_row(Acc& /*acc*/, Offset /*row_flop*/) const { return false; }
};

template <IndexType IT, ValueType VT>
struct HashVecPlanPolicy {
  using Acc = HashVecAccumulator<IT, VT>;
  ProbeKind probe = ProbeKind::kAuto;
  Acc make() const { return Acc{probe}; }
  void prepare(Acc& acc, Offset max_row_flop, IT ncols) const {
    // Accumulators persist across plan() calls; re-assert the probe kind in
    // case this plan's options changed it.
    acc.set_probe_kind(probe);
    acc.prepare(
        hash_table_size_for(max_row_flop, static_cast<std::size_t>(ncols)));
  }
  bool begin_row(Acc& /*acc*/, Offset /*row_flop*/) const { return false; }
};

template <IndexType IT, ValueType VT>
struct SpaPlanPolicy {
  using Acc = SpaAccumulator<IT, VT>;
  Acc make() const { return {}; }
  void prepare(Acc& acc, Offset /*max_row_flop*/, IT ncols) const {
    acc.prepare(static_cast<std::size_t>(ncols));
  }
  bool begin_row(Acc& /*acc*/, Offset /*row_flop*/) const { return false; }
};

template <IndexType IT, ValueType VT>
struct KkHashPlanPolicy {
  using Acc = TwoLevelHashAccumulator<IT, VT>;
  Acc make() const { return {}; }
  void prepare(Acc& acc, Offset max_row_flop, IT ncols) const {
    const auto bound = static_cast<std::size_t>(
        std::min<Offset>(max_row_flop, static_cast<Offset>(ncols)));
    acc.prepare(bound + 1);
  }
  bool begin_row(Acc& /*acc*/, Offset /*row_flop*/) const { return false; }
};

template <IndexType IT, ValueType VT>
struct AdaptivePlanPolicy {
  using Acc = AdaptiveDualAccumulator<IT, VT>;
  Offset tiny_cut = 0;
  Offset dense_cut = 0;
  IT ncols = 0;

  /// Regime cuts for a product into `ncols_b` columns.
  static AdaptivePlanPolicy for_product(IT ncols_b,
                                        AdaptiveThresholds thresholds = {}) {
    const AdaptiveCuts cuts = adaptive_cuts(ncols_b, thresholds);
    return {cuts.tiny, cuts.dense, ncols_b};
  }

  Acc make() const { return {}; }
  void prepare(Acc& acc, Offset max_row_flop, IT nc) const {
    acc.prepare_hash(hash_table_size_for(
        std::min<Offset>(max_row_flop, dense_cut),
        static_cast<std::size_t>(nc)));
  }
  /// Dense rows switch the accumulator to the SPA regime; tiny rows stay on
  /// the hash regime but force sorted emission.
  bool begin_row(Acc& acc, Offset row_flop) const {
    const bool dense = row_flop >= dense_cut;
    if (dense) acc.ensure_spa(static_cast<std::size_t>(ncols));
    acc.set_dense(dense);
    return row_flop <= tiny_cut;
  }
};

/// The ONE algorithm-to-policy mapping: invoke `fn` with the policy object
/// for `algo`.  The one-shot dispatch (core/multiply.hpp), SpGemmHandle's
/// kernel emplacement and multiply_rap all go through here, so they cannot
/// drift apart in how they configure a kernel — a prerequisite for their
/// bit-identical outputs.
template <IndexType IT, ValueType VT, typename Fn>
decltype(auto) with_plan_policy(Algorithm algo, ProbeKind probe, IT ncols_b,
                                Fn&& fn) {
  switch (algo) {
    case Algorithm::kHash:
      return fn(HashPlanPolicy<IT, VT>{});
    case Algorithm::kHashVector:
      return fn(HashVecPlanPolicy<IT, VT>{probe});
    case Algorithm::kSpa:
      return fn(SpaPlanPolicy<IT, VT>{});
    case Algorithm::kKkHash:
      return fn(KkHashPlanPolicy<IT, VT>{});
    case Algorithm::kAdaptive:
      return fn(AdaptivePlanPolicy<IT, VT>::for_product(ncols_b));
    default:
      throw std::invalid_argument(
          "with_plan_policy: kernel has no planning policy (two-phase "
          "kernels only)");
  }
}

}  // namespace spgemm::detail
